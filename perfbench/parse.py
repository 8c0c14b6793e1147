"""Parsers for the `repro` output the benchmark checks and measures.

Every parser is strict: a missing table, a renamed column or a number that
does not parse raises `ParseError`, so a format drift in `repro` fails the
benchmark loudly instead of reading as a silent zero.

Each parser also returns a `check` dict keyed and formatted exactly as the
traced run (`perfbench/traced`) reports the same cells, so the two can be
compared for equality.
"""

import re


class ParseError(ValueError):
    """`repro` output does not have the format the benchmark expects."""


TIMING_RE = re.compile(r"^(\S+): precondition ([0-9.]+) ms, replay ([0-9.]+) ms$")
REDUCTION_RE = re.compile(
    r"^(PR2|AR2|PnAR2) vs Baseline: avg (-?[0-9.]+)% / max (-?[0-9.]+)% response-time reduction$"
)
RUN_RE = re.compile(r"^(\S+) / (\S+) / QD=(\d+)$")

FIG14_MECHANISMS = ["Baseline", "PR2", "AR2", "PnAR2", "NoRR"]


def timing(stderr):
    """The `(precondition_ms, replay_ms)` split a replaying command prints."""
    for line in stderr.splitlines():
        m = TIMING_RE.match(line.strip())
        if m:
            return float(m.group(2)), float(m.group(3))
    raise ParseError("no 'precondition X ms, replay Y ms' line on stderr")


def tables(text):
    """Every markdown table in `text` as `(caption, header, rows)`.

    The caption is the closest non-blank line above the table; `rows` are
    lists of stripped cell strings, the separator row dropped.
    """
    out = []
    lines = text.splitlines()
    caption = ""
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("|"):
            block = []
            while i < len(lines) and lines[i].strip().startswith("|"):
                block.append([c.strip() for c in lines[i].strip().strip("|").split("|")])
                i += 1
            if len(block) < 2 or not all(set(c) <= set("-") for c in block[1]):
                raise ParseError(f"malformed table under {caption!r}")
            header, rows = block[0], block[2:]
            for r in rows:
                if len(r) != len(header):
                    raise ParseError(f"ragged row {r} under {caption!r}")
            out.append((caption, header, rows))
            continue
        if line:
            caption = line
        i += 1
    return out


def table(text, caption_prefix, header):
    """The one table whose caption starts with `caption_prefix`; its header
    must equal `header`."""
    found = [t for t in tables(text) if t[0].startswith(caption_prefix)]
    if len(found) != 1:
        raise ParseError(f"expected one table captioned {caption_prefix!r}, found {len(found)}")
    _, got, rows = found[0]
    if got != header:
        raise ParseError(f"table {caption_prefix!r} has columns {got}, expected {header}")
    return rows


def number(s, what):
    try:
        return float(s)
    except ValueError:
        raise ParseError(f"{what}: {s!r} is not a number") from None


def count(s, what):
    if not s.isdigit():
        raise ParseError(f"{what}: {s!r} is not a count")
    return int(s)


def months(s):
    if not s.endswith(" mo"):
        raise ParseError(f"retention {s!r} is not '<n> mo'")
    return s[: -len(" mo")]


def fig14(stdout):
    """`repro fig14`: normalized response times, read p99s and the
    avg / max reduction lines, keyed `<workload>/<PEC>/<months>`."""
    header = ["workload", "PEC", "t_RET"] + FIG14_MECHANISMS
    norm_rows = table(stdout, "_Paper reference: §7.2", header)
    p99_rows = table(stdout, "read p99 (µs", header)
    norm, p99 = {}, {}
    for rows, dest in ((norm_rows, norm), (p99_rows, p99)):
        for r in rows:
            key = f"{r[0]}/{r[1]}/{months(r[2])}"
            if key in dest:
                raise ParseError(f"fig14 row {key} repeated")
            dest[key] = r[3:]
    for key, vals in norm.items():
        for v in vals:
            number(v, f"fig14 {key}")
    for key, vals in p99.items():
        for v in vals:
            if v != "—":
                number(v, f"fig14 p99 {key}")
    reductions = {}
    for line in stdout.splitlines():
        m = REDUCTION_RE.match(line.strip())
        if m:
            reductions[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    if set(reductions) != {"PR2", "AR2", "PnAR2"}:
        raise ParseError(f"fig14 reduction lines for {sorted(reductions)}, expected PR2/AR2/PnAR2")
    check = {f"norm/{k}": v for k, v in norm.items()}
    check.update({f"p99/{k}": v for k, v in p99.items()})
    for mech, (avg, mx) in reductions.items():
        check[f"reduction/{mech}"] = [f"{avg:.1f}%", f"{mx:.1f}%"]
    return {"norm": norm, "p99": p99, "reductions": reductions, "check": check}


def sweep_qd(stdout):
    """`repro sweep-qd`: per-cell class counts and read p99, average
    response, and (under redundancy) the wait-for-k table, keyed
    `<workload>/<mechanism>/<QD>`."""
    lat = table(
        stdout,
        "latency distributions",
        ["run", "class", "n", "p50", "p95", "p99", "p99.9"],
    )
    cells = {}
    for r in lat:
        m = RUN_RE.match(r[0])
        if not m:
            raise ParseError(f"sweep-qd run label {r[0]!r}")
        key = "/".join(m.groups())
        cell = cells.setdefault(key, {})
        if r[1] in cell:
            raise ParseError(f"sweep-qd {key} class {r[1]} repeated")
        cell[r[1]] = {"n": count(r[2], f"{key} {r[1]} n"), "p99": r[5]}
    for key, cell in cells.items():
        if set(cell) != {"reads", "writes", "retried reads"}:
            raise ParseError(f"sweep-qd {key} has classes {sorted(cell)}")
    means = table(
        stdout,
        "throughput and means",
        ["workload", "mechanism", "QD", "avg resp (µs)", "kIOPS"],
    )
    avg = {}
    for r in means:
        key = f"{r[0]}/{r[1]}/{r[2]}"
        number(r[3], f"{key} avg resp")
        avg[key] = r[3]
    if set(avg) != set(cells):
        raise ParseError("sweep-qd latency and means tables list different cells")
    redundancy = {}
    if any(t[0].startswith("redundancy: wait-for-k") for t in tables(stdout)):
        for r in table(
            stdout,
            "redundancy: wait-for-k",
            ["run", "scheme", "reads", "p50", "p99", "p99.9", "rescued", "saved µs", "failed"],
        ):
            m = RUN_RE.match(r[0])
            if not m:
                raise ParseError(f"redundancy run label {r[0]!r}")
            redundancy["/".join(m.groups())] = {
                "scheme": r[1],
                "reads": count(r[2], f"{r[0]} wait-for-k reads"),
                "rescued": count(r[6], f"{r[0]} rescued"),
                "failed": r[8],
            }
    check = {}
    for key, cell in cells.items():
        row = [
            str(cell["reads"]["n"]),
            cell["reads"]["p99"],
            str(cell["writes"]["n"]),
            avg[key],
        ]
        if redundancy:
            row.append(str(redundancy[key]["reads"]) if key in redundancy else "missing")
        check[key] = row
    return {"cells": cells, "avg": avg, "redundancy": redundancy, "check": check}


def fig5(stdout):
    """`repro fig5`: mean retry steps and P(>=7 steps) per condition, keyed
    `fig5/<PEC>/<months>`."""
    rows = table(
        stdout,
        "_Paper reference: §3.1",
        ["P/E cycles", "months", "mean steps", "min", "max", "P(≥7 steps)"],
    )
    out = {}
    for r in rows:
        number(r[2], "fig5 mean steps")
        number(r[5].rstrip("%"), "fig5 P(>=7)")
        out[f"fig5/{r[0]}/{r[1]}"] = [r[2], r[5]]
    return out


def fig11(stdout):
    """`repro fig11`: max safe tPRE reduction per condition, keyed
    `fig11/<PEC>/<months>`, as percent strings."""
    rows = table(
        stdout,
        "_Paper reference: §5.2.3",
        ["P/E cycles", "months", "max safe ΔtPRE", "M_ERR @ reduction", "remaining margin"],
    )
    out = {}
    for r in rows:
        if not r[2].endswith("%"):
            raise ParseError(f"fig11 reduction {r[2]!r} is not a percentage")
        number(r[2][:-1], "fig11 reduction")
        out[f"fig11/{r[0]}/{r[1]}"] = [r[2]]
    return out
