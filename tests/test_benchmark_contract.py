"""Names the benchmark's traced run reaches into.

``perfbench/run.py --trace 1`` (``perfbench/layers.py``) wraps public
functions at each module boundary, subclasses ``census.ProcessPoolExecutor``
and replays recorded value-table calls through private census names.
Removing or reshaping one of them breaks only the traced run, so this guard
exercises each one the way the probe does.  A change that has to drop one
updates the probe first (ROADMAP.md, "Benchmark contract").
"""

import pickle

from continuants import Alphabet, ParikhVector, bounds, census, cli, core, explorer, extremal, reference

# (module, attribute) pairs the tracer wraps or reads.
TRACED = [
    (census, "run_census"),
    (census, "_value_table"),
    (census, "exact_class_count"),
    (census, "DEFAULT_VALUE_BUDGET"),
    (explorer, "_value_table"),
    (explorer, "find_witness"),
    (explorer, "growing_multiplicity_scan"),
    (explorer, "exact_multiplicity_scan"),
    (extremal, "verify_max_arrangement"),
    (extremal, "max_arrangement"),
    (extremal, "brute_force_extrema"),
    (extremal, "multiset_permutations"),
    (bounds, "bounds_report"),
    (bounds, "density_threshold_s"),
    (bounds, "growth_factor"),
    (bounds, "simplified_bound_threshold"),
    (bounds, "DEFAULT_PREC_BITS"),
    (core, "continuant"),
    (cli, "main"),
]

# Names census and extremal keep only for the probe, with the module that
# defines each; they must stay the same objects, not forks.
FORWARDED = [
    (census, "multiset_permutations", reference),
    (census, "enumerate_classes", reference),
    (census, "exact_class_count", core),
    (extremal, "multiset_permutations", reference),
]

ALPHABET, PARIKH = Alphabet((1, 2, 3)), ParikhVector((2, 1, 2))
BUDGET = census.DEFAULT_VALUE_BUDGET


def test_traced_names_exist():
    missing = [f"{m.__name__}.{name}" for m, name in TRACED if not hasattr(m, name)]
    assert missing == []


def test_forwarded_names_are_their_home_objects():
    forks = [
        f"{m.__name__}.{name}" for m, name, home in FORWARDED if getattr(m, name) is not getattr(home, name)
    ]
    assert forks == []


def test_pool_class_can_be_subclassed():
    assert isinstance(census.ProcessPoolExecutor, type)


def test_enumeration_probes():
    letters, counts = ALPHABET.letters, PARIKH.counts
    assert sum(1 for _ in census.multiset_permutations(letters, counts)) == 30
    assert sum(1 for _ in extremal.multiset_permutations(letters, counts)) == 30
    assert sum(1 for _ in census.enumerate_classes(ALPHABET, PARIKH)) == 16


def test_value_table_accepts_the_probe_keywords():
    bare = census._value_table(ALPHABET, PARIKH, workers=1, words_per_value=0, value_budget=BUDGET)
    words = census._value_table(ALPHABET, PARIKH, workers=1, words_per_value=2, value_budget=BUDGET)
    pinned = census._value_table(ALPHABET, PARIKH, workers=2, words_per_value=2, value_budget=BUDGET)
    classes, values, no_words = bare
    assert (classes, no_words) == (census.exact_class_count(PARIKH), {})
    assert words[:2] == (classes, values)
    assert pinned == words


def test_shard_replay_with_a_five_tuple():
    letters, counts = ALPHABET.letters, PARIKH.counts
    classes = 0
    for prefix in census._shard_prefixes(letters, counts):
        part = census._scan_shard((letters, counts, prefix, 2, BUDGET))
        assert len(pickle.dumps(part)) > 0
        classes += part[0]
    assert classes == census.exact_class_count(PARIKH)


def test_every_job_may_pass_workers():
    argv = ["census", "--alphabet", "1,2", "--parikh", "2,2", "--workers", "2", "--format", "json"]
    args = cli.build_parser().parse_args(argv)
    assert (args.command, args.workers, args.format) == ("census", 2, "json")


def test_explorer_tables_go_through_the_module_global(monkeypatch):
    # The probe counts explorer.table.calls by replacing explorer._value_table.
    calls = []
    table = explorer._value_table

    def counted(alphabet, parikh, **kwargs):
        calls.append(parikh.counts)
        return table(alphabet, parikh, **kwargs)

    monkeypatch.setattr(explorer, "_value_table", counted)
    explorer.find_witness(ALPHABET, PARIKH, 2)
    entries = explorer.growing_multiplicity_scan(ALPHABET, 1, 2)
    result = explorer.exact_multiplicity_scan(ALPHABET, 2, 20)
    assert calls[:3] == [PARIKH.counts, (1, 1, 1), (2, 2, 2)]
    assert len(calls) == 3 + result.parikhs_scanned
    assert [(m, mu, rec.multiplicity) for m, mu, rec in entries] == [(1, 1, 1), (2, 3, 3)]
