"""Names that ``run.py`` and ``worker.py`` share."""

WORKLOADS = ("scan", "heat", "geodesic", "group-laws")

# Registry selectors of the functions whose batched kernels the traced heat
# round times per sample; the metric names use the part before "(".
CALC_FS = ("poly_radial", "vertical_sq", "exp_linear(0.5)", "cos_theta", "gauss_bump(1.0)")


def short_name(selector: str) -> str:
    return selector.split("(")[0]
