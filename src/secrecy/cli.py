"""Batch front door: parse channel/state/code files, dispatch computations,
emit reports and region data.

Exit codes: 0 success; 1 validation or parse failure; 2 infeasible problem
or outside the converse region; 3 numerical solver failure.  All numbers
print with 6 significant digits; CSV files carry full precision.  The
environment variable ``SECRECY_BUDGET_DIM`` caps the joint-dimension guard
of the state-assembly routines (default 64).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .capacity import p1_general_lower_bound, private_capacity_degraded
from .channels import check_degraded
from .codes import SearchConfig, brute_force_M, evaluate_code
from .converse import OutsideConverseRegion, classify_region, finite_n_terms
from .entropy import EntropyQuery, h_max_smooth, h_min_smooth
from .io import parse_channel_spec, parse_code, parse_state, save_code
from .lemmas import run_harness
from .quantum import ValidationError
from .sdp import SdpError

__all__ = ["build_parser", "emit_region_csv", "main"]


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _fmt_dist(p) -> str:
    return "(" + ", ".join(_fmt(v) for v in np.asarray(p, dtype=float)) + ")"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    ch = parse_channel_spec(args.channel)
    print(f"channel {ch.name or '(unnamed)'}: {ch.size} letters, "
          f"dim_b={ch.dim_b}, dim_e={ch.dim_e}: valid")
    return 0


def _cmd_degrade_check(args) -> int:
    ch = parse_channel_spec(args.channel)
    structure = check_degraded(ch)
    if structure is None:
        print("not degraded: no degrading map reproduces the eavesdropper "
              "marginals", file=sys.stderr)
        return 2
    print(f"degraded: residual={_fmt(structure.residual)} "
          f"tp_residual={_fmt(structure.tp_residual)} "
          f"dim_f={structure.dim_f}")
    return 0


def _cmd_capacity(args) -> int:
    ch = parse_channel_spec(args.channel)
    if args.aux_size is not None:
        res = p1_general_lower_bound(ch, aux_size=args.aux_size)
        print(f"P1 lower bound = {_fmt(res.value)}")
        print(f"optimizer p = {_fmt_dist(res.distribution)}")
        return 0
    structure = check_degraded(ch)
    if structure is None:
        print("not degraded: the single-letter capacity formula does not "
              "apply (rerun with --aux-size for a lower bound)",
              file=sys.stderr)
        return 2
    res = private_capacity_degraded(ch, structure)
    print(f"P = {_fmt(res.value)}")
    print(f"optimizer p = {_fmt_dist(res.distribution)}")
    return 0


def _ints(text: str, flag: str) -> list[int]:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} {text!r} is not comma-separated "
                              f"integers") from None


def _split_groups(dims: tuple[int, ...], split: str) -> tuple[tuple, tuple]:
    counts = _ints(split, "--split")
    if len(counts) not in (2, 3) or any(c < 1 for c in counts):
        raise ValidationError("--split needs 2 or 3 positive group sizes")
    if sum(counts) != len(dims):
        raise ValidationError(
            f"--split groups cover {sum(counts)} factors, state has "
            f"{len(dims)}")
    a = tuple(range(counts[0]))
    b = tuple(range(counts[0], counts[0] + counts[1]))
    # a third group, when present, is traced out
    return a, b


def _cmd_entropy(args) -> int:
    state = parse_state(args.state)
    a, b = _split_groups(state.dims, args.split)
    query = EntropyQuery(state, a, b, args.smooth)
    if args.which == "hmin":
        value = h_min_smooth(query)
        label = "H_min"
    else:
        value = h_max_smooth(query)
        label = "H_max"
    print(f"{label}^{_fmt(args.smooth)}(A|B) = {_fmt(value)}")
    return 0


def _cmd_lemmas(args) -> int:
    rows = run_harness(trials=args.trials, seed=args.seed,
                       dims=_ints(args.dims, "--dims"))
    failures = [(s, r) for s, r in rows if not r.holds]
    for row_seed, rep in failures:
        print(f"FAIL {rep.rule} seed={row_seed} params={rep.params_text()} "
              f"slack={_fmt(rep.slack)}", file=sys.stderr)
    print(f"{len(rows)} checks, {len(failures)} failures")
    return 1 if failures else 0


def _cmd_code_eval(args) -> int:
    ch = parse_channel_spec(args.channel)
    code = parse_code(args.code)
    perf = evaluate_code(code, ch)
    print(f"M={code.m} n={code.n} rate={_fmt(code.rate)}")
    print(f"eps_star={_fmt(perf.eps_star)} delta_star={_fmt(perf.delta_star)} "
          f"success={_fmt(perf.success_prob)}")
    return 0


def _cmd_code_search(args) -> int:
    ch = parse_channel_spec(args.channel)
    best_m, witness = brute_force_M(ch, args.n, args.eps, args.delta,
                                    SearchConfig())
    print(f"M({args.n}, {_fmt(args.eps)}, {_fmt(args.delta)}) >= {best_m}")
    if witness is not None:
        perf = evaluate_code(witness, ch)
        print(f"witness: eps_star={_fmt(perf.eps_star)} "
              f"delta_star={_fmt(perf.delta_star)}")
        if args.output is not None:
            save_code(witness, args.output)
            print(f"witness written to {args.output}")
    return 0


def _cmd_converse(args) -> int:
    ch = parse_channel_spec(args.channel)
    structure = check_degraded(ch)
    if structure is None:
        print("not degraded: the finite-blocklength converse needs a "
              "degraded channel", file=sys.stderr)
        return 2
    terms = finite_n_terms(ch, structure, args.n, args.eps, args.delta,
                           constant_type=args.constant_type)
    print(f"B({args.n}, {_fmt(args.eps)}, {_fmt(args.delta)}) = "
          f"{_fmt(terms.total)}")
    print(f"capacity_term={_fmt(terms.capacity_term)} "
          f"widths={_fmt(terms.aep_upper_width + terms.aep_lower_width)} "
          f"chain={_fmt(terms.chain_cost)} "
          f"type={_fmt(terms.type_cost)} hashing={_fmt(terms.hashing_cost)}")
    print(f"per-use overhead = {_fmt((terms.total - terms.capacity_term) / args.n)}")
    return 0


def emit_region_csv(resolution: int, path) -> None:
    """Sample the unit square on ``resolution`` points per axis and write
    ``epsilon,delta,region`` rows at full float precision."""
    if resolution < 2:
        raise ValidationError("region grid needs at least 2 points per axis")
    lines = ["epsilon,delta,region"]
    for i in range(resolution):
        eps = i / (resolution - 1)
        for j in range(resolution):
            delta = j / (resolution - 1)
            verdict = classify_region(eps, delta)
            lines.append(f"{eps!r},{delta!r},{verdict.label}")
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_region(args) -> int:
    if args.grid < 1:
        raise ValidationError("--grid must be a positive interval count")
    resolution = args.grid + 1
    emit_region_csv(resolution, args.output)
    print(f"wrote {resolution * resolution} verdicts to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; our contract is 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secrecy",
                     description="Wiretap-channel secrecy toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a channel file")
    p.add_argument("channel")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("degrade-check",
                       help="find a degrading map or report none exists")
    p.add_argument("channel")
    p.set_defaults(func=_cmd_degrade_check)

    p = sub.add_parser("capacity", help="single-letter private capacity")
    p.add_argument("channel")
    p.add_argument("--aux-size", type=int, default=None, metavar="K",
                   help="lower bound with an auxiliary alphabet of size K")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("entropy", help="smooth conditional entropy of a state")
    p.add_argument("state")
    p.add_argument("--which", choices=("hmin", "hmax"), required=True)
    p.add_argument("--smooth", type=float, default=0.0, metavar="E")
    p.add_argument("--split", required=True, metavar="A,B[,C]",
                   help="sizes of the A / B / traced-out factor groups")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("lemmas", help="run the inequality harness")
    p.add_argument("--trials", type=int, default=200, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--dims", default="2,2,2", metavar="dA,dB,dC")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("code-eval", help="figures of merit of a code")
    p.add_argument("channel")
    p.add_argument("code")
    p.set_defaults(func=_cmd_code_eval)

    p = sub.add_parser("code-search",
                       help="brute-force largest admissible message count")
    p.add_argument("channel")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True, metavar="E")
    p.add_argument("--delta", type=float, required=True, metavar="D")
    p.add_argument("-o", "--output", default=None,
                   help="write the witness code file here")
    p.set_defaults(func=_cmd_code_search)

    p = sub.add_parser("converse", help="explicit finite-blocklength bound")
    p.add_argument("channel")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True, metavar="E")
    p.add_argument("--delta", type=float, required=True, metavar="D")
    p.add_argument("--constant-type", action="store_true",
                   help="bound codes supported on a single type class")
    p.set_defaults(func=_cmd_converse)

    p = sub.add_parser("region", help="verdict grid over the unit square")
    p.add_argument("--grid", type=int, required=True, metavar="G",
                   help="number of intervals per axis (G+1 points)")
    p.add_argument("-o", "--output", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_region)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutsideConverseRegion as ex:
        print(f"outside converse region: {ex}", file=sys.stderr)
        return 2
    except ValidationError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except SdpError as ex:
        print(f"solver failure: {ex}", file=sys.stderr)
        return 3
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
