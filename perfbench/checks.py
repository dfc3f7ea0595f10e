"""Correctness checks on the files one fireflyopt invocation emitted.

Two kinds of check run on every invocation:

* digests: every artifact's sha256 must equal the reference for the
  workload seed, either committed in digests.json or, for a seed without
  committed references, the digests of the run's first invocation;
* invariants that hold for any seed: curve shape and budget, summary
  extremes drawn from the curves, the median curve recomputed from the
  repetition curves, and a well-formed compare table equal to stdout.

A repetition fails when its invocation exited non-zero, its curve digest
differs or its curve breaks an invariant.  A bad summary.json,
median_curve.csv or compare.csv fails every repetition of its invocation.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Config, Invocation

CURVE_HEADER = "generation,fes_used,best_fitness"
COMPARE_HEADER = "variant,mean_best,std_best,success_rate,mean_fes_to_success"


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    fes_total: int = 0
    digests: dict = field(default_factory=dict)  # artifact key -> sha256
    problems: list = field(default_factory=list)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _curve(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER or len(lines) < 2:
        raise ValueError("missing header or rows")
    rows = [line.split(",") for line in lines[1:]]
    return [int(r[0]) for r in rows], [int(r[1]) for r in rows], [float(r[2]) for r in rows]


def _curve_problems(gens, fes, best, c: Config) -> list[str]:
    problems = []
    if gens != list(range(len(gens))):
        problems.append("generations are not 0..G-1")
    if any(b <= a for a, b in zip(fes, fes[1:])):
        problems.append("fes_used does not strictly increase")
    # the run stops at the first generation that reaches the budget
    if fes[-1] < c.max_fes or (len(fes) > 1 and fes[-2] >= c.max_fes):
        problems.append(f"budget {c.max_fes} not ended on the last generation ({fes[-1]})")
    if not all(math.isfinite(b) for b in best):
        problems.append("non-finite best fitness")
    if c.single_swarm:
        if fes[-1] != c.max_fes:
            problems.append(f"spent {fes[-1]} evaluations, budget {c.max_fes}")
        if any(b > a for a, b in zip(best, best[1:])):
            problems.append("best-so-far rose")
    return problems


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _median_curve(curves) -> str:
    lines = [CURVE_HEADER]
    for g in range(min(len(fes) for _, fes, _ in curves)):
        fes = statistics.median([c[1][g] for c in curves])
        best = statistics.median([c[2][g] for c in curves])
        lines.append(f"{g},{_fmt(fes)},{_fmt(best)}")
    return "\n".join(lines) + "\n"


def _check_run(c: Config, out: Path, seed: int, verdict: Verdict, expected) -> None:
    curve_names = [f"curve_rep{r:03d}.csv" for r in range(c.repetitions)]
    names = ["summary.json", "median_curve.csv", *curve_names]
    present = sorted(p.name for p in out.iterdir())
    if present != sorted(names):
        verdict.problems.append(f"{c.name}: emitted {present}, expected {sorted(names)}")
        verdict.failed += c.repetitions
        return
    digests = {f"{c.name}/{n}": _sha256(out / n) for n in names}
    verdict.digests.update(digests)
    mismatched = {k for k, v in digests.items() if expected is not None and expected.get(k) != v}
    verdict.problems.extend(f"{k}: digest differs from the reference" for k in sorted(mismatched))

    bad_reps, whole = set(), False
    curves = []
    for r, name in enumerate(curve_names):
        try:
            gens, fes, best = _curve((out / name).read_text())
        except ValueError as exc:
            verdict.problems.append(f"{c.name}/{name}: malformed ({exc})")
            bad_reps.add(r)
            whole = True  # nothing downstream can be checked
            continue
        curves.append((gens, fes, best))
        verdict.fes_total += fes[-1]
        problems = _curve_problems(gens, fes, best, c)
        verdict.problems.extend(f"{c.name}/{name}: {p}" for p in problems)
        if problems or f"{c.name}/{name}" in mismatched:
            bad_reps.add(r)
    if not whole:
        summary = json.loads((out / "summary.json").read_text())
        finals = [best[-1] for _, _, best in curves]
        stats = summary["stats"]
        if summary["config"]["base_seed"] != seed or summary["config"]["repetitions"] != c.repetitions:
            verdict.problems.append(f"{c.name}/summary.json: config echo does not match the config")
            whole = True
        if (stats["min_best"], stats["max_best"]) != (min(finals), max(finals)) or not (
            stats["min_best"] <= stats["mean_best"] <= stats["max_best"]
        ):
            verdict.problems.append(f"{c.name}/summary.json: stats disagree with the curves")
            whole = True
        if (out / "median_curve.csv").read_text() != _median_curve(curves):
            verdict.problems.append(f"{c.name}/median_curve.csv: not the median of the curves")
            whole = True
    whole |= bool(mismatched & {f"{c.name}/summary.json", f"{c.name}/median_curve.csv"})
    verdict.failed += c.repetitions if whole else len(bad_reps)


def _check_compare(inv: Invocation, out: Path, stdout: str, verdict: Verdict, expected) -> None:
    path = out / "compare.csv"
    if not path.is_file():
        verdict.problems.append("compare.csv missing")
        verdict.failed = verdict.attempted
        return
    key = "compare/compare.csv"
    verdict.digests[key] = _sha256(path)
    text = path.read_text()
    lines = text.splitlines()
    problems = []
    if expected is not None and expected.get(key) != verdict.digests[key]:
        problems.append("digest differs from the reference")
    if text != stdout:
        problems.append("differs from the table printed on stdout")
    if len(lines) != 2 + len(inv.configs) or not lines[0].startswith("# benchmark=") or lines[1] != COMPARE_HEADER:
        problems.append("malformed table")
    else:
        for c, line in zip(inv.configs, lines[2:]):
            cells = line.split(",")
            if len(cells) != 5 or not math.isfinite(float(cells[1])):
                problems.append(f"malformed row {line!r}")
            elif c.repetitions == 1 and float(cells[2]) != 0.0:
                problems.append(f"{c.name}: one repetition but std_best {cells[2]}")
    verdict.problems.extend(f"compare.csv: {p}" for p in problems)
    if problems:
        verdict.failed = verdict.attempted
    # a single swarm spends exactly its budget (checked on the curves of `run`)
    verdict.fes_total = sum(c.max_fes * c.repetitions for c in inv.configs)


def check(inv: Invocation, out: Path, stdout: str, exit_code: int, seed: int, expected) -> Verdict:
    """Verify one invocation's artifacts; expected maps artifact key -> sha256, or is None."""
    verdict = Verdict(attempted=sum(c.repetitions for c in inv.configs))
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
        verdict.failed = verdict.attempted
        return verdict
    if inv.command == "run":
        _check_run(inv.configs[0], out, seed, verdict, expected)
    else:
        _check_compare(inv, out, stdout, verdict, expected)
    return verdict
