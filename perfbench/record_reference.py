"""Record the reference verdicts that oracle.py compares results against.

    python3 perfbench/record_reference.py

Runs every library item for several seeds (every screened placement, for
``search``) and every CLI call in fresh processes, checks each witness with
the oracle, requires the verdicts to be the same for every seed, and writes
perfbench/reference.json.  Run it only at a commit whose verdicts are known to
be right: the file is the benchmark's definition of a correct answer.
"""

import json
import random
import sys
import tempfile

import oracle
import run
import workloads

SEEDS = (1, 2, 3)


def _library_reference(summary: dict) -> dict:
    if "abundance" in summary:
        return {"validate": summary["validate"], "abundance": summary["abundance"]["verdict"]}
    return {"validate": summary["validate"], "sst": summary["sst"]["verdict"],
            "order": summary["sst"]["order"], "dvanish": summary["dvanish"]["verdict"]}


def _merge(table: dict, key: str, value: dict) -> None:
    if table.setdefault(key, value) != value:
        sys.exit(f"{key}: reference differs between seeds: {table[key]} vs {value}")


def record_library(sw, items, table: dict, rng) -> None:
    for item in items:
        summary = run.summarize(run.run_item(sw, item))
        ref = _library_reference(summary)
        problems = oracle.check_item(json.loads(item.text), summary, ref, rng)
        if problems:
            sys.exit(f"{item.key}: oracle rejects the result: {problems}")
        _merge(table, item.key, ref)


def main() -> int:
    sw = run.import_swcalc()
    rng = random.Random(0)
    reference = {name: {} for name in run.WORKLOADS}
    for seed in SEEDS:
        for name in ("ladder", "wide"):
            record_library(sw, workloads.generate(name, seed), reference[name], rng)
    for name, (_, _, radius, _, placements) in workloads.SEARCH_SHAPES.items():
        for placement in placements:
            manifest = workloads.search_manifest(rng, name, placement)
            item = workloads.Item(f"search-{name}", "abundance", json.dumps(manifest), radius)
            record_library(sw, [item], reference["search"], rng)
    with tempfile.TemporaryDirectory(dir=run.HERE, prefix=".work-") as workdir:
        for seed in SEEDS:
            ctx = run.cli_context(run.setup("cli", seed), seed, workdir)
            done = run.cli_fresh_pass(ctx)
            for outcome in done.outcomes:
                argv, code, out, err = outcome.value
                facts = oracle.cli_facts(argv, code, out)
                problems = oracle.check_cli(argv, code, out, err, ctx.manifest_for(argv), facts, rng)
                if outcome.error or problems:
                    sys.exit(f"{outcome.key}: {outcome.error or problems}")
                _merge(reference["cli"], outcome.key, facts)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    oracle.REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {oracle.REFERENCE_PATH} "
          f"({', '.join(f'{k}: {len(v)}' for k, v in reference.items())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
