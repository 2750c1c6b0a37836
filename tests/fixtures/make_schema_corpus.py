"""Regenerate the schema mutation corpus replayed by test_schema_corpus.py.

Usage (from the repository root)::

    PYTHONPATH=src python tests/fixtures/make_schema_corpus.py \
        tests/fixtures/schema_corpus.json

Each entry records what the current validators say about one payload,
so regenerate only after a deliberate schema change, and review the
diff: every changed entry is a changed verdict or message.
"""

import copy
import json
import math
import sys

from repro.errors import ArtifactInvalidError
from repro.validate import schema as S

MISSING = object()

REC = {
    "module_key": "S0", "manufacturer": "S", "die": 0,
    "pattern": "combined", "t_on": 636.0, "trial": 0, "acmin": 1200,
    "time_to_first_ns": 550000.5, "flips_1_to_0": [[1, 2]],
    "flips_0_to_1": [[3, 4]],
}
REC2 = dict(REC, trial=1, flips_1_to_0=[], flips_0_to_1=[])
MIT = {
    "chip_key": "E0", "mitigation": "para", "pattern": "combined",
    "t_on": 636.0, "baseline_acmin": 1200, "baseline_iterations": 40,
    "time_to_first_ns": 550000.5, "critical_value": 0.5,
    "protects_at": 0.5, "fails_at": 0.25, "n_runs": 7, "cap_hit": False,
    "defeated": False, "protected_by_trefw": True,
    "protected_by_trefw_quarter": False,
}
MIT2 = dict(MIT, mitigation="graphene", critical_value=300.0,
            protects_at=300.0, fails_at=301.0)
RESULTS = {"format": S.RESULTS_FORMAT, "census_included": True,
           "measurements": [REC, REC2]}
MITDUMP = {"format": S.MITIGATION_FORMAT, "points": [MIT, MIT2]}
HEADER = {"format": S.JOURNAL_FORMAT, "fingerprint": "0123abcd",
          "n_shards": 2, "provenance": {"python": "3.12"}}
HEADER_MIT = dict(HEADER, entries=S.MITIGATION_POINT_FORMAT)
ENTRY = {"shard": 1, "measurements": [REC]}
ENTRY_MIT = {"shard": 1, "measurements": [MIT]}
TIMER = {"count": 3, "total_s": 0.3, "min_s": 0.05, "max_s": 0.2,
         "mean_s": 0.1, "p50_s": 0.05, "p90_s": 0.2}
METRICS = {
    "format": S.METRICS_FORMAT, "counters": {"shards": 4},
    "gauges": {"ratio": 0.5, "sanitized": None},
    "timers": {"shard_s": TIMER},
    "run": {"n_shards": 4, "n_resumed": 1, "n_executed": 3, "n_retries": 0},
    "provenance": {"python": "3.12"},
}
TRACE = {"event": "shard_done", "t": 1700000000.25}
BENCH = {
    "format": S.BENCH_FORMAT, "campaign": {"modules": 14},
    "seconds": {"serial": 10.5}, "speedup_vs_seed": {"auto": 5.76},
    "all_seconds": {"serial": [10.5, 11.0]},
}
SPECS = {
    "format": S.PATTERNSPEC_FORMAT,
    "specs": [{"name": "half-double", "aggressors": [{"offset": 1}]},
              {"name": "two", "aggressors": [{"offset": -1}]}],
    "provenance": {"tool": "corpus"},
}
MANIFEST = {
    "format": S.MANIFEST_FORMAT, "group_by": "module", "n_measurements": 3,
    "results_digest": "a" * 64,
    "shards": [
        {"name": "S0.json", "module": "S0", "n_measurements": 1,
         "bytes": 10, "sha256": "b" * 64},
        {"name": "H0.json", "module": "H0", "n_measurements": 2,
         "bytes": 20, "sha256": "c" * 64},
    ],
}

# (validator, extra positional args, base payload, paths to mutate or None=all)
FORMATS = [
    ("validate_measurement_record", ["$.measurements[0]", None], REC, None),
    ("validate_mitigation_record", ["$.points[0]", None], MIT, None),
    ("validate_results_payload", [None], RESULTS,
     [(), ("format",), ("census_included",), ("measurements",),
      ("measurements", 0), ("measurements", 1, "die"),
      ("measurements", 1, "flips_0_to_1")]),
    ("validate_mitigation_payload", [None], MITDUMP,
     [(), ("format",), ("points",), ("points", 0), ("points", 1, "t_on"),
      ("points", 1, "critical_value")]),
    ("validate_journal_header", [None], HEADER, None),
    ("validate_journal_header", [None], HEADER_MIT, [("entries",)]),
    ("validate_journal_entry", [3, None, None], ENTRY,
     [(), ("shard",), ("measurements",), ("measurements", 0),
      ("measurements", 0, "acmin"), ("measurements", 0, "flips_1_to_0", 0)]),
    ("validate_journal_entry", [3, None, S.MITIGATION_POINT_FORMAT],
     ENTRY_MIT,
     [(), ("shard",), ("measurements",), ("measurements", 0),
      ("measurements", 0, "baseline_acmin"),
      ("measurements", 0, "defeated")]),
    ("validate_metrics_payload", [None], METRICS, None),
    ("validate_trace_event", [5, None], TRACE, None),
    ("validate_bench_payload", [None], BENCH, None),
    ("validate_patternspec_payload", [None], SPECS, None),
    ("validate_manifest_payload", [None], MANIFEST, None),
]


def all_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from all_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from all_paths(value, prefix + (i,))


def lookup(node, path):
    for step in path:
        node = node[step]
    return node


def mutated(base, path, value):
    doc = copy.deepcopy(base)
    if not path:
        return value
    parent = lookup(doc, path[:-1])
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutations(current, in_dict):
    if in_dict:
        yield MISSING
    yield 7 if isinstance(current, str) else "x"
    yield from (True, None, -1, 0, 2.5, math.nan, math.inf, -math.inf)
    if isinstance(current, dict):
        yield []
    if isinstance(current, list):
        yield {}


def run(validator, args, payload):
    fn = getattr(S, validator)
    try:
        result = fn(copy.deepcopy(payload), *args)
    except ArtifactInvalidError as exc:
        return {"expect": str(exc)}
    except Exception as exc:  # a raw error is a schema bug worth pinning
        return {"expect": f"RAISES {type(exc).__name__}: {exc}"}
    if isinstance(result, dict) and result == payload and result is not None \
            and validator not in ("validate_results_payload",):
        returns = "payload"
    elif isinstance(result, tuple):
        returns = list(result)
    else:
        returns = result
    return {"expect": "ok", "returns": returns}


def entry(validator, args, payload, note):
    out = {"validator": validator, "args": args, "payload": payload,
           "note": note}
    out.update(run(validator, args, payload))
    return out


def hooks():
    """One or more violations (and near misses) per cross-field hook."""
    rec_args = ["$.measurements[0]", None]
    mit_args = ["$.points[0]", None]
    yield "validate_measurement_record", rec_args, dict(
        REC, acmin=None), "null acmin, timed"
    yield "validate_measurement_record", rec_args, dict(
        REC, acmin=None, time_to_first_ns=None), "null acmin, null time"
    yield "validate_measurement_record", rec_args, dict(
        REC, time_to_first_ns=None), "timeless acmin"
    for pairs in ([[1]], [[1, 2, 3]], [[]], [["a", 1]], [[1, 2.0]],
                  [[1, True]], [[-1, 5]], [[5, -1]], [[1, 2], "x"],
                  [[0, 0]]):
        yield "validate_measurement_record", rec_args, dict(
            REC, flips_1_to_0=pairs), f"census pair {pairs!r}"
    yield "validate_measurement_record", rec_args, dict(
        REC, flips_0_to_1=[[-3, -4]]), "negative census 0->1"
    yield "validate_measurement_record", rec_args, {
        k: v for k, v in REC.items() if not k.startswith("flips")
    }, "no census keys"
    for name in ("Bad Name", "half-double", "a" * 64, "a" * 65, "-x", ""):
        yield "validate_measurement_record", rec_args, dict(
            REC, pattern=name), f"pattern {name!r}"
        yield "validate_mitigation_record", mit_args, dict(
            MIT, pattern=name), f"pattern {name!r}"
    yield "validate_measurement_record", ["$.x", "dump.json"], dict(
        REC, die=-2), "source prefix"
    yield "validate_measurement_record", rec_args, dict(
        REC, t_on=636), "integer t_on"
    # mitigation hooks
    yield "validate_mitigation_record", mit_args, dict(
        MIT, baseline_acmin=None), "null baseline, timed"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, baseline_acmin=None, time_to_first_ns=None), "null baseline"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, defeated=True), "defeated with a critical value"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, defeated=True, critical_value=None), "defeated, null critical"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, cap_hit=True), "cap hit with fails_at"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, cap_hit=True, fails_at=None), "cap hit, null fails_at"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, defeated=True, cap_hit=True), "defeated and cap hit"
    for mech in ("para", "para-press", "graphene", "graphene-press"):
        yield "validate_mitigation_record", mit_args, dict(
            MIT, mitigation=mech, critical_value=1.5), f"{mech} critical 1.5"
        yield "validate_mitigation_record", mit_args, dict(
            MIT, mitigation=mech, critical_value=1.0), f"{mech} critical 1.0"
    yield "validate_mitigation_record", mit_args, dict(
        MIT, mitigation="trr"), "unknown mitigation"
    yield "validate_mitigation_record", ["$.p", "mit.json"], dict(
        MIT, n_runs=-3), "source prefix"
    # duplicate identities
    yield "validate_results_payload", [None], dict(
        RESULTS, measurements=[REC, REC]), "duplicate record"
    yield "validate_results_payload", [None], dict(
        RESULTS, measurements=[REC, REC2, dict(REC, t_on=636)]), \
        "duplicate record, integer t_on"
    yield "validate_results_payload", [None], dict(
        RESULTS, measurements=[REC, REC2, dict(REC2, acmin=-1)]), \
        "duplicate identity, invalid field"
    yield "validate_results_payload", ["r.json"], [REC, REC2, REC2], \
        "legacy duplicate"
    yield "validate_mitigation_payload", [None], dict(
        MITDUMP, points=[MIT, MIT2, MIT]), "duplicate point"
    yield "validate_mitigation_payload", [None], dict(
        MITDUMP, points=[MIT, dict(MIT, n_runs=99)]), "duplicate identity"
    yield "validate_patternspec_payload", [None], dict(
        SPECS, specs=[SPECS["specs"][0], SPECS["specs"][0]]), \
        "duplicate spec name"
    yield "validate_patternspec_payload", [None], dict(
        SPECS, specs=[SPECS["specs"][0],
                      {"name": "half-double", "aggressors": []}]), \
        "duplicate spec name, no aggressors"
    shard0, shard1 = MANIFEST["shards"]
    yield "validate_manifest_payload", [None], dict(
        MANIFEST, shards=[shard0, dict(shard1, name="S0.json")]), \
        "duplicate shard name"
    yield "validate_manifest_payload", [None], dict(
        MANIFEST, shards=[shard0, {"name": "S0.json"}]), \
        "duplicate shard name, missing fields"
    # results legacy shapes
    yield "validate_results_payload", [None], [REC, REC2], "legacy list"
    yield "validate_results_payload", [None], [], "legacy empty list"
    yield "validate_results_payload", [None], [REC, 3], "legacy non-record"
    yield "validate_results_payload", [None], {
        k: v for k, v in RESULTS.items() if k != "format"
    }, "envelope without format"
    yield "validate_results_payload", [None], dict(
        RESULTS, format="repro-results-v2"), "unknown results format"
    # journal entry kind
    yield "validate_journal_entry", [2, "j.jsonl", None], ENTRY_MIT, \
        "mitigation point in a characterization journal"
    yield "validate_journal_entry", [2, None, S.MITIGATION_POINT_FORMAT], \
        ENTRY, "measurement in a mitigation journal"
    yield "validate_journal_entry", [2, None, "bogus"], ENTRY, \
        "unknown entries kind decodes as measurements"
    yield "validate_journal_header", [None], dict(
        HEADER, entries="bogus"), "unknown entries"
    yield "validate_journal_header", [None], dict(
        HEADER, entries=None), "null entries"
    # manifest names and digests
    for name in ("", "a/b.json", "a\\b.json", ".hidden", "..", "ok.json"):
        yield "validate_manifest_payload", [None], dict(
            MANIFEST, shards=[dict(shard0, name=name), shard1]), \
            f"shard name {name!r}"
    for digest in ("A" * 64, "a" * 63, "a" * 65, "g" * 64, ""):
        yield "validate_manifest_payload", [None], dict(
            MANIFEST, results_digest=digest), f"results digest {digest!r}"
        yield "validate_manifest_payload", [None], dict(
            MANIFEST, shards=[dict(shard0, sha256=digest), shard1]), \
            f"shard digest {digest!r}"
    yield "validate_manifest_payload", [None], dict(
        MANIFEST, n_measurements=4), "shard sum mismatch"
    yield "validate_manifest_payload", [None], dict(
        MANIFEST, n_measurements=0, shards=[]), "no shards"
    # bench speedup shapes
    for speedup in (5.76, 5, 0, -1.5, {"auto": 0.0}, {}, {"a": "x"},
                    {"a": math.inf}, True, None):
        yield "validate_bench_payload", [None], dict(
            BENCH, speedup_vs_seed=speedup), f"speedup {speedup!r}"
    yield "validate_bench_payload", [None], {
        k: v for k, v in BENCH.items() if k not in ("format", "all_seconds")
    }, "bench without format or all_seconds"
    yield "validate_bench_payload", [None], dict(
        BENCH, all_seconds=None), "null all_seconds"
    yield "validate_bench_payload", [None], dict(
        BENCH, format="repro-bench-v2"), "unknown bench format"
    # pattern specs
    yield "validate_patternspec_payload", [None], dict(
        SPECS, specs=[]), "no specs"
    yield "validate_patternspec_payload", [None], dict(
        SPECS, specs=[{"name": "x", "aggressors": []}]), "no aggressors"
    yield "validate_patternspec_payload", [None], dict(
        SPECS, specs=[{"name": "Bad", "aggressors": [{}]}]), "bad spec name"
    # metrics and trace near misses
    yield "validate_metrics_payload", [None], {
        k: v for k, v in METRICS.items() if k not in ("run", "provenance")
    }, "metrics without run or provenance"
    yield "validate_metrics_payload", ["m.json"], dict(
        METRICS, counters={"a": 1, "b": -1}), "negative counter"
    yield "validate_trace_event", [9, "t.jsonl"], dict(TRACE, t=-0.5), \
        "pre-epoch timestamp"
    yield "validate_trace_event", [9, None], dict(TRACE, t=0), "epoch"


def main(out):
    entries = []
    for validator, args, base, paths in FORMATS:
        entries.append(entry(validator, args, base, "valid"))
        for path in (paths if paths is not None else list(all_paths(base))):
            current = lookup(base, path)
            in_dict = bool(path) and isinstance(
                lookup(base, path[:-1]), dict)
            for value in mutations(current, in_dict):
                note = "$" + "".join(
                    f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
                note += " missing" if value is MISSING else f" = {value!r}"
                entries.append(
                    entry(validator, args, mutated(base, path, value), note))
    for validator, args, payload, note in hooks():
        entries.append(entry(validator, args, payload, note))
    with open(out, "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]\n")
    raw = [e for e in entries if e["expect"].startswith("RAISES")]
    print(len(entries), "entries;", len(raw), "raw raises")
    for e in raw:
        print(e["note"], e["expect"])


if __name__ == "__main__":
    main(sys.argv[1])
