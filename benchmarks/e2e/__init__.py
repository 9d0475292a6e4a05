"""End-to-end benchmark of the placement system: four workloads, served
and in-process, with an outside-in per-layer budget.  See README.md."""
