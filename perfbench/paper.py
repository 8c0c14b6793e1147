"""Paper reference values and the fidelity error computed against them.

`fidelity_mae_pp` is the mean absolute error, in percentage points, between
numbers `repro` prints and the values the paper reports for the same
quantity. Each reference below carries the section and figure it comes from
so it can be audited against the paper.
"""

# §7.2 Fig. 14: response-time reduction vs Baseline over the 12 workloads
# and 6 operating points, in percent, as (average, maximum).
FIG14_REDUCTION = {
    "PR2": (17.7, 38.3),
    "AR2": (11.9, 18.1),
    "PnAR2": (28.9, 51.8),
}

# §7.2 Fig. 14: PnAR2's average response-time reduction at the (2K P/E,
# 6 mo) operating point, in percent. The load sweeps run at that point, so
# their PnAR2-vs-Baseline reductions are compared with it.
FIG14_PNAR2_AT_2K_6MO = 35.2

# §5.2.3 Fig. 11: maximum safe tPRE reduction, in percent, keyed by
# (P/E cycles, retention months): 40 % at the worst condition (2K, 12 mo)
# and 54 % when fresh (0, 0).
FIG11_SAFE_REDUCTION = {
    (2000, 12): 40.0,
    (0, 0): 54.0,
}


def mae(errors):
    """Mean of absolute errors, in percentage points."""
    if not errors:
        raise ValueError("no reference values to compare")
    return sum(abs(e) for e in errors) / len(errors)


def fig14_errors(reductions):
    """Errors of the six §7.2 headline numbers; `reductions` maps a
    mechanism to the (avg, max) percentages `repro fig14` printed."""
    errors = []
    for mech, (avg, mx) in FIG14_REDUCTION.items():
        got_avg, got_max = reductions[mech]
        errors += [got_avg - avg, got_max - mx]
    return errors


def fig11_errors(fig11_check):
    """Errors of the two Fig. 11 bounds; `fig11_check` maps
    `fig11/<PEC>/<months>` to the `["40.0%"]` cells `repro fig11` printed."""
    return [
        float(fig11_check[f"fig11/{pec}/{mo}"][0].rstrip("%")) - ref
        for (pec, mo), ref in FIG11_SAFE_REDUCTION.items()
    ]


def sweep_errors(avg):
    """Errors of PnAR2's reduction at each (workload, QD) of a load sweep
    against §7.2's 35.2 % at (2K, 6 mo); `avg` maps
    `<workload>/<mechanism>/<QD>` to the printed average response (µs)."""
    errors = []
    for key, pnar2 in sorted(avg.items()):
        workload, mech, qd = key.split("/")
        if mech != "PnAR2":
            continue
        base = float(avg[f"{workload}/Baseline/{qd}"])
        errors.append(100.0 * (1.0 - float(pnar2) / base) - FIG14_PNAR2_AT_2K_6MO)
    return errors
