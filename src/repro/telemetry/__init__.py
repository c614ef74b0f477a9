"""Observability layer: request tracing, capture files, exporters.

Quickstart::

    from repro.system import System
    from repro.telemetry.export import build_capture, write_chrome_trace
    from repro.telemetry.spans import Tracer

    tracer = Tracer()
    machine = System(config, programs, tracer=tracer)
    result = machine.run()
    capture = build_capture(machine, result)
    write_chrome_trace("trace.json", capture)   # open in Perfetto

Nothing is re-exported here: import from :mod:`repro.telemetry.spans`
(request and prefetch spans, the :class:`~repro.telemetry.spans.Tracer`)
and :mod:`repro.telemetry.export` (the capture file, its ``metrics``
block, the text summary and the Chrome trace).  See
``docs/OBSERVABILITY.md`` and ``python -m repro trace --help``.
"""
