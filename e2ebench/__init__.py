"""End-to-end benchmark of the FedFT-EDS reproduction.

``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs repetitions of one workload, each in a child
process, and prints its metrics; see :mod:`e2ebench.run` for the runner,
:mod:`e2ebench.workloads` for what each workload does,
:mod:`e2ebench.hostspeed` for the probe the timings are scaled by and
:mod:`e2ebench.layers` for the traced run.
"""
