"""Repository benchmark: workloads, delivery oracle and outside-in tracing."""
