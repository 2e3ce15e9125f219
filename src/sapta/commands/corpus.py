"""`sapta corpus`: every built-in scenario against its expected class."""
from __future__ import annotations

from ..scenarios import CORPUS_ORDER


def run(cli, args, keep: list) -> tuple[int, dict | list[str]]:
    results = cli.run_corpus(args.seed)
    keep.append(results)
    ok = all(r.match for r in results)
    code = cli.EX_OK if ok else cli.EX_MISMATCH
    if args.format == "json":
        return code, {
            "results": [r.to_json() for r in results],
            "allMatch": ok,
            "metadata": {"seed": args.seed, "order": list(CORPUS_ORDER)},
        }
    return code, [
        *(f"{r.name}: expected {cli._class_text(r.report.expected_class)}, "
          f"classified {cli._class_text(r.classified)}, {'ok' if r.match else 'MISMATCH'}"
          for r in results),
        f"{sum(r.match for r in results)}/{len(results)} scenarios match",
    ]
