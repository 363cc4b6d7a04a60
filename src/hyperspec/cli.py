"""Command-line front end.

Subcommands: ``power`` builds a blow-up hypergraph file, ``spectrum`` computes
(H-)spectra of power tensors, ``verify`` runs numeric checks of the spectral
identities at chosen k, and ``certificate`` decides diagonal similarity of
the Laplacian tensors and reports certificates at chosen moduli.  Exit
codes: 0 success, 1 a verification check failed, 2 bad input, 3 budget
exhausted (results are lower bounds), 4 a solver missed its certificate or
iteration budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from hyperspec.gauge import certificate_report
from hyperspec.graphs import LoopedGraph, parse_edge_list
from hyperspec.hypergraphs import from_json_dict, generalized_power, to_canonical_json
from hyperspec.linalg import (
    ConvergenceError,
    eig_real_symmetric,
    power_iteration_nonneg,
    spectral_radius,
)
from hyperspec.reduction import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_SUBSET,
    KIND_LETTER,
    STRICT_MARGIN,
    RhoResult,
    h_spectrum_power,
    lambda_max_laplacian,
    rho_powers,
    spectrum_power,
    uniform_phase_matrix,
)
from hyperspec.tensors import TensorOperator, lift_perron, nqz_power_iteration
from hyperspec.witnesses import JSON_SLICE as _SLICE

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4

CHECKS = ("rho-equality", "shrinking-gap", "power-invariance")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {raw!r}") from exc


def _k_values(args: argparse.Namespace) -> tuple[int, ...]:
    """The even k of ``--k``; ``power`` and ``spectrum`` take exactly one."""
    k_values = _parse_int_list(args.k)
    if not k_values:
        raise ValueError("at least one k is required")
    if args.command in ("power", "spectrum") and len(k_values) != 1:
        raise ValueError(f"command {args.command} takes exactly one k")
    for k in k_values:
        if k % 2:
            raise ValueError(f"k must be even for s=k/2 constructions, got {k}")
    return k_values


def _read_graph(path: str) -> LoopedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _read_hypergraph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path} is not a hypergraph JSON file, as `hyperspec power` "
                f"writes: {exc}"
            ) from exc
    return from_json_dict(payload)


def _sig7(x: float) -> str:
    return format(float(x), ".7g")


def _write(parts: Iterable[str], out_path: str | None) -> None:
    """Write the strings of ``parts``, in order, to ``out_path`` or stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_parts(payload: dict) -> Iterator[str]:
    """``payload``, a dict with string keys, as canonical JSON and a newline,
    in pieces.

    The bytes are those of ``json.dumps(payload, sort_keys=True,
    separators=(",", ":")) + "\n"``.  Each top-level list is encoded
    ``_SLICE`` items at a time by the same C encoder, so no piece holds more
    than one slice of a long list, and nothing holds the whole text.
    """
    yield "{"
    for n, key in enumerate(sorted(payload)):
        value = payload[key]
        yield ("," if n else "") + _encode(key) + ":"
        if isinstance(value, list):
            yield "["
            for lo in range(0, len(value), _SLICE):
                yield ("," if lo else "") + _encode(value[lo : lo + _SLICE])[1:-1]
            yield "]"
        else:
            yield _encode(value)
    yield "}\n"


def _emit(
    args: argparse.Namespace,
    json_parts: Iterator[str],
    table: Callable[[], tuple[list[str], list[list]]],
    pretty: Callable[[], list[str]],
) -> None:
    """Write a command's result in its ``--format`` to ``--out`` or stdout.

    json is the canonical JSON text that the generator ``json_parts``
    yields in pieces, and it is not started for another format; csv is the
    header and rows that ``table`` returns; pretty is the lines that
    ``pretty`` returns.
    """
    if args.format == "json":
        parts = json_parts
    elif args.format == "csv":
        columns, rows = table()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        parts = [buf.getvalue()]
    else:
        parts = ["\n".join(pretty()) + "\n"]
    _write(parts, args.out)


# -- subcommands ---------------------------------------------------------------


def cmd_power(args: argparse.Namespace) -> int:
    (k,) = _k_values(args)
    g = _read_graph(args.input)
    h, halfmap = generalized_power(g, k, args.s if args.s is not None else k // 2)
    _write([to_canonical_json(h, halfmap)], args.out)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    (k,) = _k_values(args)
    g = _read_graph(args.input)
    compute = h_spectrum_power if args.h_only else spectrum_power
    report = compute(
        g, k, args.kind, dedup_tol=args.tol, max_subset=args.max_subset, budget=args.budget
    )

    def table() -> tuple[list[str], list[list]]:
        return ["value_re", "value_im"], [[v.real, v.imag] for v in report.values]

    def pretty() -> list[str]:
        lines = [
            f"{'H-spectrum' if args.h_only else 'spectrum'} kind={KIND_LETTER[report.kind]} "
            f"k={report.k} complete={report.complete}"
        ]
        for v in report.values:
            lines.append(f"  {_sig7(v.real)} {'+' if v.imag >= 0 else '-'} {_sig7(abs(v.imag))}i")
        return lines

    _emit(args, report.json_parts(), table, pretty)
    return EXIT_OK if report.complete else EXIT_BUDGET


def _rho_cases(
    args: argparse.Namespace, g: LoopedGraph, ks: Sequence[int]
) -> tuple[float, list[tuple[int, float, RhoResult]]]:
    """rho(Q) of a non-bipartite base graph, and lambda_max(L) and the
    enumerated rho(L) of the Laplacian tensor at each k."""
    if g.is_bipartite():
        raise ValueError("this check requires a non-bipartite graph")
    rho_q = float(eig_real_symmetric(g.signless_laplacian_matrix())[-1].value)
    # one enumeration and one set of Perron majorants serve every k, and
    # every k is checked before them
    rhos = rho_powers(g, ks, "laplacian", max_subset=args.max_subset, budget=args.budget)
    # lambda_max(L) does not depend on k
    lam = lambda_max_laplacian(g, ks[0])
    return rho_q, [(k, lam, rho) for k, rho in zip(ks, rhos)]


def _check_rho_equality(
    args: argparse.Namespace, g: LoopedGraph, ks: Sequence[int]
) -> tuple[list[dict], bool, bool]:
    # --tol is the equality tolerance here; NaN would fail every comparison
    if not args.tol >= 0:
        raise ValueError(f"--tol must be a nonnegative number, got {args.tol}")
    rho_q, cases = _rho_cases(args, g, ks)
    rows = []
    for k, lam, rho in cases:
        if k % 4 == 0:
            ok = abs(rho.value - rho_q) <= args.tol and lam < rho.value - STRICT_MARGIN
            margin = abs(rho.value - rho_q)
        else:
            ok = rho.value <= rho_q - STRICT_MARGIN
            margin = rho_q - rho.value
        rows.append(
            {
                "k": k,
                "lambda_max_L": lam,
                "rho_L": rho.value,
                "rho_Q": rho_q,
                "equal_expected": k % 4 == 0,
                "margin": margin,
                "ok": ok,
            }
        )
    all_ok = all(row["ok"] for row in rows)
    return rows, all_ok, all(rho.complete for _, _, rho in cases)


def _check_shrinking_gap(
    args: argparse.Namespace, g: LoopedGraph, ks: Sequence[int]
) -> tuple[list[dict], bool, bool]:
    ks = sorted(ks)
    if any(k % 4 != 2 for k in ks):
        raise ValueError("this check needs k = 2 (mod 4)")
    rho_q, cases = _rho_cases(args, g, ks)
    rows = []
    gaps = []
    for k, lam, rho in cases:
        # the paper's strict inequality is about the enumerated rho(L); the
        # uniform phase only bounds it from below
        rho_uniform = spectral_radius(uniform_phase_matrix(g, k))
        gap = rho_q - rho_uniform
        gaps.append(gap)
        rows.append(
            {
                "k": k,
                "lambda_max_L": lam,
                "rho_L": rho.value,
                "rho_uniform_phase": rho_uniform,
                "gap": gap,
                "lambda_below_rho": lam < rho.value - STRICT_MARGIN,
            }
        )
    decreasing = all(gaps[i] > gaps[i + 1] + 1e-9 for i in range(len(gaps) - 1))
    all_ok = decreasing and all(row["lambda_below_rho"] for row in rows)
    for row in rows:
        row["ok"] = all_ok
    return rows, all_ok, all(rho.complete for _, _, rho in cases)


def _check_power_invariance(
    g: LoopedGraph, ks: Sequence[int]
) -> tuple[list[dict], bool, bool]:
    q_base = power_iteration_nonneg(g.signless_laplacian_matrix())
    a_base = power_iteration_nonneg(g.adjacency_matrix())
    rows = []
    all_ok = True
    for k in ks:
        h, halfmap = generalized_power(g, k, k // 2)
        # NQZ starts at the lifted base Perron vectors, the tensors' Perron
        # vectors; its Collatz-Wielandt bounds certify the values from any start
        rho_q_power, rho_a_power = (
            nqz_power_iteration(
                TensorOperator(h, kind), start=lift_perron(h, halfmap, base.vector)
            ).value
            for kind, base in (("signless", q_base), ("adjacency", a_base))
        )
        margin = max(abs(rho_q_power - q_base.value), abs(rho_a_power - a_base.value))
        ok = margin <= STRICT_MARGIN
        all_ok = all_ok and ok
        rows.append(
            {
                "k": k,
                "rho_Q_base": float(q_base.value),
                "rho_Q_power": float(rho_q_power),
                "rho_A_base": float(a_base.value),
                "rho_A_power": float(rho_a_power),
                "margin": float(margin),
                "ok": ok,
            }
        )
    return rows, all_ok, True


def cmd_verify(args: argparse.Namespace) -> int:
    ks = _k_values(args)
    g = _read_graph(args.input)
    if args.check == "rho-equality":
        rows, all_ok, complete = _check_rho_equality(args, g, ks)
    elif args.check == "shrinking-gap":
        rows, all_ok, complete = _check_shrinking_gap(args, g, ks)
    else:
        rows, all_ok, complete = _check_power_invariance(g, ks)
    payload = {"check": args.check, "rows": rows, "passed": all_ok, "complete": complete}

    def table() -> tuple[list[str], list[list]]:
        columns = sorted({key for row in rows for key in row})
        return columns, [[row.get(col, "") for col in columns] for row in rows]

    def pretty() -> list[str]:
        lines = [f"check {args.check}: {'PASS' if all_ok else 'FAIL'}"]
        for row in rows:
            parts = []
            for key, value in row.items():
                parts.append(
                    f"{key}={_sig7(value)}" if isinstance(value, float) else f"{key}={value}"
                )
            lines.append("  " + " ".join(parts))
        return lines

    _emit(args, _json_parts(payload), table, pretty)
    if not complete:
        return EXIT_BUDGET
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_certificate(args: argparse.Namespace) -> int:
    moduli = _parse_int_list(args.moduli) if args.moduli else None
    h, _ = _read_hypergraph(args.input)
    report = certificate_report(h, moduli)
    entries = report["moduli"].items()

    def pretty() -> list[str]:
        lines = [f"odd_bipartite={report['odd_bipartite']}"]
        for m, entry in entries:
            lines.append(f"  modulus {m}: {'certificate' if entry['solvable'] else 'none'}")
        lines.extend(f"  {note}" for note in report["summary"])
        return lines

    def table() -> tuple[list[str], list[list]]:
        return ["modulus", "solvable"], [[m, entry["solvable"]] for m, entry in entries]

    _emit(args, _json_parts(report), table, pretty)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


# built on first use, not at import, then shared by every call of main
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Spectra of adjacency/Laplacian/signless Laplacian tensors "
        "of half-blowup power hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def options(
        p: argparse.ArgumentParser, *, k: bool, enumeration: bool, formats: bool
    ) -> None:
        p.add_argument("--input", required=True, help="input file path")
        if k:
            p.add_argument("--k", required=True, help="edge rank (comma list allowed)")
        if enumeration:
            p.add_argument(
                "--budget", type=int, default=DEFAULT_BUDGET, help="matrix budget"
            )
            p.add_argument("--max-subset", type=int, default=DEFAULT_MAX_SUBSET)
            p.add_argument("--tol", type=float, default=1e-8)
        if formats:
            p.add_argument(
                "--format", choices=("json", "csv", "pretty"), default="json"
            )
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_power = sub.add_parser("power", help="write the blow-up hypergraph as JSON")
    options(p_power, k=True, enumeration=False, formats=False)
    p_power.add_argument("--s", type=int, default=None, help="blow-up size (default k/2)")

    p_spec = sub.add_parser("spectrum", help="spectrum or H-spectrum of a power tensor")
    options(p_spec, k=True, enumeration=True, formats=True)
    p_spec.add_argument("--kind", choices=("A", "L", "Q"), default="L")
    p_spec.add_argument("--h-only", action="store_true", help="H-spectrum only")

    p_verify = sub.add_parser("verify", help="numeric checks of the spectral identities")
    options(p_verify, k=True, enumeration=True, formats=True)
    p_verify.add_argument("--check", choices=CHECKS, required=True)

    p_cert = sub.add_parser("certificate", help="diagonal-similarity certificates")
    options(p_cert, k=False, enumeration=False, formats=True)
    p_cert.add_argument("--moduli", default=None, help="comma list (default 2,k,2k)")

    return parser


_COMMANDS = {
    "power": cmd_power,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "certificate": cmd_certificate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
