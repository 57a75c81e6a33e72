"""End-to-end benchmark of the hotspot-detection program.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics as the last line
of standard output; ``perfbench/README.md`` describes the workloads, the
metrics and the checks.
"""
