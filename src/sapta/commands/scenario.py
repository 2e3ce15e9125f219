"""`sapta scenario`: one built-in scenario's report."""
from __future__ import annotations


def _build_scenario(cli, args):
    if args.name == "double_slit":
        return cli.scenario_double_slit(
            args.one_slit_observed, args.one_slit_unobserved, args.two_slits_unobserved
        )
    if args.name == "cat":
        return cli.scenario_cat(args.open, args.seed, args.trials)
    if args.name == "wigner":
        return cli.scenario_wigner(args.perspective, args.friend_outcome)
    if args.name == "epr":
        return cli.scenario_epr(args.basis)
    if args.name == "qcc":
        return cli.scenario_qcc()
    return cli.scenario_threshold(args.levels, args.lower_cut, args.upper_cut)


def run(cli, args, keep: list) -> tuple[int, dict | list[str]]:
    report = _build_scenario(cli, args)
    keep.append(report)
    if args.format == "json":
        out = report.to_json()
        out["metadata"] = {"seed": args.seed}
        return cli.EX_OK, out
    paint = cli._painter()
    return cli.EX_OK, [
        f"scenario: {report.scenario_name}",
        *(f"  {j.context}: {j.predicate} = {paint(j.value.value)}" for j in report.judgments),
        f"expected: {cli._class_text(report.expected_class)}",
        *(f"  {name} = {value}" for name, value in report.numeric_witness.items()),
    ]
