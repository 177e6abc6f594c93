"""Reference candidate-step list: one rational division and one `Step` per
(edge, n), deduplicated by exact (coeff, unit), n running on until
lambda > lambda_max; the definition that `lengths.step_table` computes from
integer step keys."""

from qglab import MetricGraph, Step


def candidate_steps_reference(graph: MetricGraph, lambda_max: float) -> list[Step]:
    lams: dict[Step, float] = {}    # insertion order breaks ties in lambda
    for e in graph.edges:
        n = 1
        while True:
            step = Step(e.length.coeff / n, e.length.unit)
            lam = step.lambda_value(graph.units)
            if lam > lambda_max:
                break
            lams.setdefault(step, lam)
            n += 1
    return sorted(lams, key=lams.get)
