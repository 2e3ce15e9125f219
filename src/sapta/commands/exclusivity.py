"""`sapta exclusivity`: the 21-row mutual exclusivity certificate."""
from __future__ import annotations


def run(cli, args, keep: list) -> tuple[int, dict | list[str]]:
    rows = cli.mutual_exclusivity_certificate()
    keep.append(rows)
    distinct = sum(1 for r in rows if r.verdict == "distinct")
    code = cli.EX_OK if distinct == len(rows) else cli.EX_ERROR
    if args.format == "json":
        return code, {
            "rows": [r.to_json() for r in rows],
            "allDistinct": distinct == len(rows),
            "distinct": distinct,
            "total": len(rows),
        }
    return code, [
        *(f"{r.first.value}/{r.second.value}: {r.verdict} ({r.reason})" for r in rows),
        f"{distinct}/{len(rows)} distinct",
    ]
