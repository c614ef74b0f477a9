"""Post-run analysis: latency distributions, utilisation, run reports."""
