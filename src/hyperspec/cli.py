"""Command-line front end.

Subcommands: ``power`` builds a blow-up hypergraph file, ``spectrum`` computes
(H-)spectra of power tensors, ``verify`` runs numeric checks of the spectral
identities at chosen k, and ``certificate`` probes diagonal-similarity
certificates.  Exit codes: 0 success, 1 a verification check failed, 2 bad
input, 3 budget exhausted (results are lower bounds).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from hyperspec.gauge import certificate_report
from hyperspec.graphs import LoopedGraph, parse_edge_list
from hyperspec.hypergraphs import from_json_dict, generalized_power, to_canonical_json
from hyperspec.linalg import (
    eig_real_symmetric,
    power_iteration_nonneg,
    spectral_radius,
)
from hyperspec.reduction import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_SUBSET,
    STRICT_MARGIN,
    h_spectrum_power,
    lambda_max_laplacian,
    normalize_kind,
    rho_power,
    spectrum_power,
    uniform_phase_matrix,
)
from hyperspec.tensors import TensorOperator, nqz_power_iteration

__all__ = ["main", "run", "RunConfig"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

CHECKS = ("rho-equality", "shrinking-gap", "power-invariance")


@dataclass
class RunConfig:
    """Resolved options shared by the subcommands."""

    command: str
    input_path: str
    k_values: tuple[int, ...] = ()
    s: int | None = None
    kind: str = "laplacian"
    h_only: bool = False
    check: str | None = None
    moduli: tuple[int, ...] | None = None
    budget: int = DEFAULT_BUDGET
    max_subset: int = DEFAULT_MAX_SUBSET
    tol: float = 1e-8
    output_format: str = "json"
    out_path: str | None = None


def _default_budget() -> int:
    raw = os.environ.get("HYPERSPEC_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HYPERSPEC_BUDGET={raw!r} is not an integer") from exc
    if value <= 0:
        raise ValueError("HYPERSPEC_BUDGET must be positive")
    return value


def _parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {raw!r}") from exc


def _read_graph(path: str) -> LoopedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _read_hypergraph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return from_json_dict(payload)


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _sig7(x: float) -> str:
    return format(float(x), ".7g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])
    return buf.getvalue()


# -- subcommands ---------------------------------------------------------------


def cmd_power(cfg: RunConfig) -> int:
    g = _read_graph(cfg.input_path)
    (k,) = cfg.k_values
    s = cfg.s if cfg.s is not None else k // 2
    h, halfmap = generalized_power(g, k, s)
    _emit(to_canonical_json(h, halfmap), cfg.out_path)
    return EXIT_OK


def _spectrum_payload(cfg: RunConfig, g: LoopedGraph, k: int) -> dict:
    compute = h_spectrum_power if cfg.h_only else spectrum_power
    report = compute(
        g,
        k,
        cfg.kind,
        dedup_tol=cfg.tol,
        max_subset=cfg.max_subset,
        budget=cfg.budget,
    )
    return report.to_json_dict()


def cmd_spectrum(cfg: RunConfig) -> int:
    g = _read_graph(cfg.input_path)
    (k,) = cfg.k_values
    payload = _spectrum_payload(cfg, g, k)
    if cfg.output_format == "json":
        _emit(_canonical_json(payload), cfg.out_path)
    elif cfg.output_format == "csv":
        rows = [
            {"value_re": re, "value_im": im}
            for re, im in payload["values"]
        ]
        _emit(_rows_to_csv(rows, ["value_re", "value_im"]), cfg.out_path)
    else:
        lines = [
            f"{'H-spectrum' if cfg.h_only else 'spectrum'} kind={payload['kind']} "
            f"k={payload['k']} complete={payload['complete']}"
        ]
        for re, im in payload["values"]:
            lines.append(f"  {_sig7(re)} {'+' if im >= 0 else '-'} {_sig7(abs(im))}i")
        _emit("\n".join(lines) + "\n", cfg.out_path)
    return EXIT_OK if payload["complete"] else EXIT_BUDGET


def _check_rho_equality(cfg: RunConfig, g: LoopedGraph) -> tuple[list[dict], bool, bool]:
    if g.is_bipartite():
        raise ValueError("this check requires a non-bipartite graph")
    rows = []
    all_ok = True
    complete = True
    rho_q = float(eig_real_symmetric(g.signless_laplacian_matrix())[-1].value)
    for k in cfg.k_values:
        lam = lambda_max_laplacian(g, k)
        rho = rho_power(g, k, "laplacian", max_subset=cfg.max_subset, budget=cfg.budget)
        complete = complete and rho.complete
        if k % 4 == 0:
            ok = abs(rho.value - rho_q) <= cfg.tol and lam < rho.value - STRICT_MARGIN
            margin = abs(rho.value - rho_q)
        else:
            ok = rho.value <= rho_q - STRICT_MARGIN
            margin = rho_q - rho.value
        all_ok = all_ok and ok
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
    return rows, all_ok, complete


def _check_shrinking_gap(cfg: RunConfig, g: LoopedGraph) -> tuple[list[dict], bool, bool]:
    if g.is_bipartite():
        raise ValueError("this check requires a non-bipartite graph")
    ks = sorted(cfg.k_values)
    if any(k % 4 != 2 for k in ks):
        raise ValueError("this check needs k = 2 (mod 4)")
    rho_q = float(eig_real_symmetric(g.signless_laplacian_matrix())[-1].value)
    rows = []
    gaps = []
    all_ok = True
    complete = True
    for k in ks:
        lam = lambda_max_laplacian(g, k)
        # the paper's strict inequality is about the enumerated rho(L); the
        # uniform phase only bounds it from below
        rho = rho_power(g, k, "laplacian", max_subset=cfg.max_subset, budget=cfg.budget)
        complete = complete and rho.complete
        rho_uniform = spectral_radius(uniform_phase_matrix(g, k))
        gap = rho_q - rho_uniform
        ok = lam < rho.value - STRICT_MARGIN
        all_ok = all_ok and ok
        gaps.append(gap)
        rows.append(
            {
                "k": k,
                "lambda_max_L": lam,
                "rho_L": rho.value,
                "rho_uniform_phase": rho_uniform,
                "gap": gap,
                "lambda_below_rho": ok,
            }
        )
    decreasing = all(gaps[i] > gaps[i + 1] + 1e-9 for i in range(len(gaps) - 1))
    all_ok = all_ok and decreasing
    for row in rows:
        row["ok"] = all_ok
    return rows, all_ok, complete


def _check_power_invariance(cfg: RunConfig, g: LoopedGraph) -> tuple[list[dict], bool, bool]:
    rho_q_base = power_iteration_nonneg(g.signless_laplacian_matrix()).value
    rho_a_base = power_iteration_nonneg(g.adjacency_matrix()).value
    rows = []
    all_ok = True
    for k in cfg.k_values:
        h, _ = generalized_power(g, k, k // 2)
        rho_q_power = nqz_power_iteration(TensorOperator(h, "signless")).value
        rho_a_power = nqz_power_iteration(TensorOperator(h, "adjacency")).value
        margin = max(abs(rho_q_power - rho_q_base), abs(rho_a_power - rho_a_base))
        ok = margin <= STRICT_MARGIN
        all_ok = all_ok and ok
        rows.append(
            {
                "k": k,
                "rho_Q_base": float(rho_q_base),
                "rho_Q_power": float(rho_q_power),
                "rho_A_base": float(rho_a_base),
                "rho_A_power": float(rho_a_power),
                "margin": float(margin),
                "ok": ok,
            }
        )
    return rows, all_ok, True


def cmd_verify(cfg: RunConfig) -> int:
    g = _read_graph(cfg.input_path)
    if cfg.check == "rho-equality":
        rows, all_ok, complete = _check_rho_equality(cfg, g)
    elif cfg.check == "shrinking-gap":
        rows, all_ok, complete = _check_shrinking_gap(cfg, g)
    else:
        rows, all_ok, complete = _check_power_invariance(cfg, g)
    payload = {"check": cfg.check, "rows": rows, "passed": all_ok, "complete": complete}
    if cfg.output_format == "json":
        _emit(_canonical_json(payload), cfg.out_path)
    elif cfg.output_format == "csv":
        columns = sorted({key for row in rows for key in row})
        _emit(_rows_to_csv(rows, columns), cfg.out_path)
    else:
        lines = [f"check {cfg.check}: {'PASS' if all_ok else 'FAIL'}"]
        for row in rows:
            parts = []
            for key, value in row.items():
                parts.append(
                    f"{key}={_sig7(value)}" if isinstance(value, float) else f"{key}={value}"
                )
            lines.append("  " + " ".join(parts))
        _emit("\n".join(lines) + "\n", cfg.out_path)
    if not complete:
        return EXIT_BUDGET
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_certificate(cfg: RunConfig) -> int:
    h, _ = _read_hypergraph(cfg.input_path)
    report = certificate_report(h, cfg.moduli)
    if cfg.output_format == "json":
        _emit(_canonical_json(report), cfg.out_path)
    elif cfg.output_format == "csv":
        rows = [
            {"modulus": m, "solvable": entry["solvable"]}
            for m, entry in report["moduli"].items()
        ]
        _emit(_rows_to_csv(rows, ["modulus", "solvable"]), cfg.out_path)
    else:
        lines = [f"odd_bipartite={report['odd_bipartite']}"]
        for m, entry in report["moduli"].items():
            lines.append(f"  modulus {m}: {'certificate' if entry['solvable'] else 'none'}")
        lines.extend(f"  {note}" for note in report["summary"])
        _emit("\n".join(lines) + "\n", cfg.out_path)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="Spectra of adjacency/Laplacian/signless Laplacian tensors "
        "of half-blowup power hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_k: bool = True) -> None:
        p.add_argument("--input", required=True, help="input file path")
        if needs_k:
            p.add_argument("--k", required=True, help="edge rank (comma list allowed)")
        p.add_argument("--budget", type=int, default=None, help="matrix budget")
        p.add_argument("--max-subset", type=int, default=DEFAULT_MAX_SUBSET)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default="json"
        )
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_power = sub.add_parser("power", help="write the blow-up hypergraph as JSON")
    common(p_power)
    p_power.add_argument("--s", type=int, default=None, help="blow-up size (default k/2)")

    p_spec = sub.add_parser("spectrum", help="spectrum or H-spectrum of a power tensor")
    common(p_spec)
    p_spec.add_argument("--kind", choices=("A", "L", "Q"), default="L")
    p_spec.add_argument("--h-only", action="store_true", help="H-spectrum only")

    p_verify = sub.add_parser("verify", help="numeric checks of the spectral identities")
    common(p_verify)
    p_verify.add_argument("--check", choices=CHECKS, required=True)

    p_cert = sub.add_parser("certificate", help="diagonal-similarity certificates")
    common(p_cert, needs_k=False)
    p_cert.add_argument("--moduli", default=None, help="comma list (default 2,k,2k)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    budget = args.budget if args.budget is not None else _default_budget()
    if budget <= 0:
        raise ValueError("budget must be positive")
    k_values: tuple[int, ...] = ()
    if getattr(args, "k", None) is not None:
        k_values = _parse_int_list(args.k)
        if not k_values:
            raise ValueError("at least one k is required")
    cfg = RunConfig(
        command=args.command,
        input_path=args.input,
        k_values=k_values,
        s=getattr(args, "s", None),
        kind=normalize_kind(getattr(args, "kind", "L")),
        h_only=bool(getattr(args, "h_only", False)),
        check=getattr(args, "check", None),
        moduli=_parse_int_list(args.moduli) if getattr(args, "moduli", None) else None,
        budget=budget,
        max_subset=args.max_subset,
        tol=args.tol,
        output_format=args.format,
        out_path=args.out,
    )
    if cfg.command in ("power", "spectrum") and len(cfg.k_values) != 1:
        raise ValueError(f"command {cfg.command} takes exactly one k")
    if cfg.command in ("power", "spectrum", "verify"):
        for k in cfg.k_values:
            if k % 2:
                raise ValueError(f"k must be even for s=k/2 constructions, got {k}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "power":
            return cmd_power(cfg)
        if cfg.command == "spectrum":
            return cmd_spectrum(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_certificate(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
