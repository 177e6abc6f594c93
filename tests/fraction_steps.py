"""Reference candidate-step list: one rational division and one `Step` per
(edge, n), deduplicated by exact (coeff, unit); the definition that
`lengths.candidate_steps` computes from integer step keys."""

import math

from qglab import MetricGraph, Step


def candidate_steps_reference(graph: MetricGraph, lambda_max: float) -> list[Step]:
    smin = math.pi / math.sqrt(lambda_max)
    lams: dict[Step, float] = {}    # insertion order breaks ties in lambda
    for e in graph.edges:
        ln = e.length.value(graph.units)
        nmax = int(math.floor(ln / smin + 1e-12))
        for n in range(1, nmax + 1):
            step = Step(e.length.coeff / n, e.length.unit)
            if step not in lams:
                lams[step] = step.lambda_value(graph.units)
    return sorted((s for s, lam in lams.items() if lam <= lambda_max), key=lams.get)
