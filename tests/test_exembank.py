import json
import logging
import math
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leadopt.chemfeat import WIDTH, Fingerprint, morgan_fp, tanimoto
from leadopt.exembank import (
    EXEMPLAR_FOOTER,
    EXEMPLAR_HEADER,
    EmptyBankError,
    ExemplarBank,
    ExemplarRecord,
    build_bank,
    candidate_recall,
    format_score,
    load_bank,
    render_exemplar_block,
    retrieve_exemplars,
    save_bank,
)
from leadopt import molgraph
from leadopt.molgraph import parse
from leadopt.oracles import (
    Objective,
    ObjectiveTerm,
    Oracle,
    SuccessCriterion,
    builtin_oracle,
)

from leadopt.skillbank import (
    SkillBank,
    build_edit_card,
    make_skill_card,
    render_skill_block,
    retrieve_skills,
)

from conftest import brute_tanimoto, fold, fresh_python, near_positions, scatter


def fake_record(name: str, bits: int, score: float) -> ExemplarRecord:
    return ExemplarRecord(name, Fingerprint(bits), {"act": score})


def near(*smiles: str) -> list[int]:
    """64 bit positions for random rows, the bits of the molecules'
    fingerprints first."""
    bits = 0
    for text in smiles:
        bits |= morgan_fp(parse(text)).bits
    return near_positions(bits, 64)


def act_objective(gamma=0.4):
    oracle = Oracle("act", lambda m: 0.0)
    return Objective(
        name="act",
        terms=(ObjectiveTerm(oracle, 1.0, SuccessCriterion("absolute", "ge", 0.9)),),
        gamma=gamma,
    )


def brute_retrieve(records, query_fp, lead_fp, gamma_ex, k, pool_size):
    """Three-loop reference pipeline: scan -> filter -> sort."""
    pool = sorted(
        records, key=lambda r: (-brute_tanimoto(query_fp, r.fp), r.canonical)
    )[:pool_size]
    kept = [r for r in pool if brute_tanimoto(r.fp, lead_fp) >= gamma_ex]
    kept.sort(
        key=lambda r: (-r.props["act"], -brute_tanimoto(r.fp, lead_fp), r.canonical)
    )
    return kept[:k]


class TestBuildBank:
    def test_dedup(self):
        rows = ["CCO\tact=0.5", "OCC\tact=0.7", "CCN\tact=0.2"]
        bank = build_bank(rows)
        assert len(bank) == 2

    def test_bad_rows_skipped(self):
        rows = ["CCO\tact=0.5", "not_a_smiles((\tact=0.1", "C1CC\tact=0.3"]
        bank = build_bank(rows)
        assert len(bank) == 1

    def test_canonicalization_budget_trip_skipped_and_logged(
        self, no_canon_leaves, caplog
    ):
        bank = build_bank(["CCO\tact=0.5", "CC(C)C\tact=0.1"])
        assert [r.canonical for r in bank.records] == ["CCO"]
        assert "skipping corpus row 2" in caplog.text

    def test_props_filled_by_oracles(self):
        bank = build_bank(["CCO", "CCN"], oracles=[builtin_oracle("qed_lite")])
        assert all("qed_lite" in r.props for r in bank.records)

    def test_jsonl_rows(self):
        rows = ['{"smiles": "CCO", "props": {"act": 0.5}}']
        bank = build_bank(rows)
        assert bank.records[0].props == {"act": 0.5}

    def test_comments_ignored(self):
        bank = build_bank(["# header", "CCO\tact=0.5", ""])
        assert len(bank) == 1

    def test_count_synthetic(self):
        rows = [f"{'C' * (i % 6 + 1)}CO\tact=0.{i}" for i in range(60)]
        bank = build_bank(rows)
        assert len(bank) == 6  # canonical dedup collapses repeats


class TestCandidateRecall:
    def test_identical_member_rank_one(self):
        bank = build_bank(["CCO\tact=0.1", "CCCCO\tact=0.2", "CCN\tact=0.3"])
        top = candidate_recall(bank, parse("CCCCO"), 2)
        assert top[0].canonical == parse("CCCCO").canonical
        assert brute_tanimoto(top[0].fp, morgan_fp(parse("CCCCO"))) == 1.0

    def test_pool_larger_than_bank(self):
        bank = build_bank(["CCO\tact=0.1", "CCN\tact=0.3"])
        assert len(candidate_recall(bank, parse("CCO"), 50)) == 2

    def test_empty_bank(self):
        with pytest.raises(EmptyBankError):
            candidate_recall(ExemplarBank(()), parse("CCO"), 5)

    def test_matches_brute_force_scan(self):
        rng = random.Random(11)
        positions = near("CCCCO")
        records = [
            fake_record(f"M{i:04d}", scatter(rng.getrandbits(64), positions), rng.random())
            for i in range(1000)
        ]
        bank = ExemplarBank(records)
        query = parse("CCCCO")
        query_fp = morgan_fp(query)
        got = candidate_recall(bank, query, 50)
        expected = sorted(
            records, key=lambda r: (-brute_tanimoto(query_fp, r.fp), r.canonical)
        )[:50]
        assert [r.canonical for r in got] == [r.canonical for r in expected]


class TestRetrieveExemplars:
    def test_single_filter_survivor(self):
        lead = parse("CCCCO")
        lead_fp = morgan_fp(lead)
        close = fake_record("NEAR", lead_fp.bits, 0.1)
        far = fake_record("FAR", 1 << 63, 0.99)
        bank = ExemplarBank([close, far])
        got = retrieve_exemplars(bank, lead, lead, act_objective(), k=2, gamma_ex=0.9)
        assert [r.canonical for r in got] == ["NEAR"]

    def test_gamma_zero_is_pure_score_ranking(self):
        rng = random.Random(5)
        records = [
            fake_record(f"M{i:03d}", rng.getrandbits(64), round(rng.random(), 6))
            for i in range(50)
        ]
        bank = ExemplarBank(records)
        got = retrieve_exemplars(
            bank, parse("CCCCO"), parse("CCCCO"), act_objective(), k=5,
            gamma_ex=0.0, pool_size=100,
        )
        top_scores = sorted((r.props["act"] for r in records), reverse=True)[:5]
        assert [r.props["act"] for r in got] == top_scores

    def test_every_result_passes_lead_filter(self):
        rng = random.Random(9)
        positions = near("CCO", "CCCCO")
        records = [
            fake_record(f"M{i:03d}", scatter(rng.getrandbits(64), positions), rng.random())
            for i in range(200)
        ]
        bank = ExemplarBank(records)
        lead = parse("CCCCO")
        lead_fp = morgan_fp(lead)
        got = retrieve_exemplars(bank, parse("CCO"), lead, act_objective(),
                                 k=10, gamma_ex=0.2, pool_size=200)
        assert got
        for record in got:
            assert brute_tanimoto(record.fp, lead_fp) >= 0.2

    def test_matches_brute_force_pipeline(self):
        rng = random.Random(13)
        positions = near("CCO", "CCCCO")
        records = [
            fake_record(f"M{i:03d}", scatter(rng.getrandbits(64), positions),
                        round(rng.random(), 6))
            for i in range(100)
        ]
        bank = ExemplarBank(records)
        current, lead = parse("CCO"), parse("CCCCO")
        got = retrieve_exemplars(bank, current, lead, act_objective(), k=4,
                                 gamma_ex=0.1, pool_size=40)
        expected = brute_retrieve(
            records, morgan_fp(current), morgan_fp(lead), 0.1, 4, 40
        )
        assert [r.canonical for r in got] == [r.canonical for r in expected]

    def test_result_sorted_by_score(self):
        rng = random.Random(17)
        records = [
            fake_record(f"M{i:03d}", rng.getrandbits(64), rng.random())
            for i in range(80)
        ]
        bank = ExemplarBank(records)
        got = retrieve_exemplars(bank, parse("CCO"), parse("CCO"),
                                 act_objective(), k=8, gamma_ex=0.0, pool_size=80)
        scores = [r.props["act"] for r in got]
        assert scores == sorted(scores, reverse=True)


DIFF_MOLECULES = ["CCO", "CCCCO", "c1ccccc1O", "CC(=O)N", "CCN(C)C", "FCCCl"]


def tox_objective():
    return Objective(
        name="act_tox",
        terms=(
            ObjectiveTerm(Oracle("act", lambda m: 0.0), 0.75,
                          SuccessCriterion("absolute", "ge", 0.9)),
            ObjectiveTerm(Oracle("tox", lambda m: 0.0, direction=-1), 0.25,
                          SuccessCriterion("absolute", "le", 0.1)),
        ),
    )


@st.composite
def banks(draw):
    """A bank whose rows share bits with the query molecules' fingerprints,
    with tied fingerprints, all-zero rows, tied scores and records that
    lack a property, at a row count that need not be a multiple of 8."""
    count = draw(st.one_of(st.integers(1, 40), st.integers(505, 530)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    seen_bits = [morgan_fp(parse(s)).bits for s in DIFF_MOLECULES]
    shapes = [0] + seen_bits + [rng.getrandbits(WIDTH) & rng.getrandbits(WIDTH)
                                for _ in range(4)]
    records = []
    for i in range(count):
        bits = rng.choice(shapes)
        if rng.random() < 0.5:
            bits = (bits & rng.getrandbits(WIDTH)) | rng.choice(shapes)
        props = {}
        if rng.random() < 0.9:
            props["act"] = rng.choice([0.1, 0.5, 0.5, 0.9, rng.random()])
        if rng.random() < 0.8:
            props["tox"] = rng.choice([0.0, 0.2, rng.random()])
        name = f"R{rng.randrange(10**6):06d}.{i}"
        records.append(ExemplarRecord(name, Fingerprint(bits), props))
    obj = draw(st.sampled_from(["act", "act_tox"]))
    return ExemplarBank(records), obj


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def reference_retrieve(bank, current, lead, obj, k, threshold, pool_size):
    """`tanimoto` and Python sorts with the documented tie-breaks, and the
    names of the pool records logged as lacking a property, in pool order."""
    query_fp = morgan_fp(current)
    lead_fp = morgan_fp(lead)
    pool = sorted(
        bank.records, key=lambda r: (-tanimoto(query_fp, r.fp), r.canonical)
    )[:pool_size]
    scored, lacking = [], []
    for record in pool:
        lead_sim = tanimoto(record.fp, lead_fp)
        if lead_sim < threshold:
            continue
        try:
            scored.append((obj.aggregate(record.props), lead_sim, record))
        except KeyError:
            lacking.append(record.canonical)
    scored.sort(key=lambda item: (-item[0], -item[1], item[2].canonical))
    return pool, [record for _, _, record in scored[:k]], lacking


class TestDifferential:
    @given(
        banks(),
        st.sampled_from(DIFF_MOLECULES),
        st.sampled_from(DIFF_MOLECULES),
        st.sampled_from([1, 3, 8, 10_000]),
        st.sampled_from([0.0, 0.2, 0.4, 1.0]),
        st.sampled_from([1, 5, 20, 600]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_reference(self, case, current, lead, k, gamma, pool):
        bank, obj_name = case
        obj = act_objective() if obj_name == "act" else tox_objective()
        current, lead = parse(current), parse(lead)
        want_pool, want, lacking = reference_retrieve(bank, current, lead, obj, k,
                                                      gamma, pool)
        assert candidate_recall(bank, current, pool) == want_pool
        handler = _Lines()
        logger = logging.getLogger("leadopt.exembank")
        logger.addHandler(handler)
        try:
            got = retrieve_exemplars(bank, current, lead, obj, k=k, gamma_ex=gamma,
                                     pool_size=pool)
        finally:
            logger.removeHandler(handler)
        assert got == want
        assert handler.lines == [
            f"exemplar {name} lacks a property for objective {obj.name}; dropped"
            for name in lacking
        ]

    def test_missing_property_logged_on_every_retrieval(self, caplog):
        lead = parse("CCCCO")
        bits = morgan_fp(lead).bits
        bank = ExemplarBank(
            [
                ExemplarRecord("A", Fingerprint(bits), {"act": 0.3}),
                ExemplarRecord("B", Fingerprint(bits), {"other": 0.9}),
            ]
        )
        for _ in range(2):
            got = retrieve_exemplars(bank, lead, lead, act_objective(), gamma_ex=0.5)
            assert [r.canonical for r in got] == ["A"]
        lines = [r.getMessage() for r in caplog.records]
        assert lines == ["exemplar B lacks a property for objective act; dropped"] * 2


class TestNonFiniteProperties:
    HEXYL = ["CCCCCCO", "CCCCCCN", "CCCCCCC", "CCCCCCF", "CCCCCCS", "CCCCCCCl",
             "OCCCCCCO", "NCCCCCCO", "CCCCCC(C)O", "CCCCCC(=O)O"]

    def test_nan_row_skipped_and_logged(self, caplog):
        rows = [f"{s}\tqed_lite={0.9 - 0.05 * i:.3f}" for i, s in enumerate(self.HEXYL)]
        rows[0] = "CCCCCCO\tqed_lite=nan"
        bank = build_bank(rows)
        assert len(bank) == 9
        assert "skipping corpus row 1: non-finite property qed_lite" in caplog.text
        obj = Objective(
            name="qed",
            terms=(ObjectiveTerm(Oracle("qed_lite", lambda m: 0.0), 1.0,
                                 SuccessCriterion("absolute", "ge", 0.9)),),
        )
        lead = parse("CCCCCCO")
        got = retrieve_exemplars(bank, lead, lead, obj, k=3, gamma_ex=0.0, pool_size=10)
        scores = [r.props["qed_lite"] for r in got]
        assert all(math.isfinite(v) for v in scores)
        finite = sorted((r.props["qed_lite"] for r in bank.records), reverse=True)
        assert scores == finite[:3]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_json_rows_skipped(self, value, caplog):
        bank = build_bank(['{"smiles": "CCO", "props": {"act": 0.5}}',
                           '{"smiles": "CCN", "props": {"act": %s}}' % value])
        assert [r.canonical for r in bank.records] == ["CCO"]
        assert "skipping corpus row 2" in caplog.text

    @pytest.mark.parametrize("row", [
        '{"smiles": "CCN", "props": [1]}',
        '{"smiles": "CCN", "props": "x"}',
        '{"smiles": "CCN", "props": {"act": null}}',
        '{"smiles": "CCN", "props": {"act": "0.5"}}',
        '{"smiles": "CCN", "props": {"act": true}}',
        '{"smiles": "CCN", "props": {"act": 1%s}}' % ("0" * 400),
        '{"smiles": 5, "props": {"act": 0.5}}',
        '{"props": {"act": 0.5}}',
    ])
    def test_malformed_json_rows_skipped_and_loading_them_names_the_line(
        self, row, tmp_path, caplog
    ):
        bank = build_bank(['{"smiles": "CCO", "props": {"act": 0.5}}', row,
                           "CCCO\tact=0.7"])
        assert [r.canonical for r in bank.records] == ["CCO", "CCCO"]
        assert "skipping corpus row 2" in caplog.text
        assert "bank build skipped 1 bad rows" in caplog.text

        jsonl_path, _ = save_bank(build_bank(["CCO\tact=0.5", "CCN\tact=0.6"]),
                                  tmp_path / "b")
        lines = jsonl_path.read_text().splitlines()
        lines[1] = row
        jsonl_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{jsonl_path} line 2: ")):
            load_bank(tmp_path / "b")

    def test_oracle_filled_nan_skipped(self):
        bank = build_bank(["CCO", "CCN\tact=0.2"],
                          oracles=[Oracle("act", lambda m: float("nan"))])
        assert [r.canonical for r in bank.records] == ["CCN"]

    def test_load_skips_and_keeps_fingerprints_aligned(self, tmp_path, caplog):
        bank = build_bank(["CCO\tact=0.1", "c1ccccc1\tact=0.2", "CCCCN\tact=0.3"])
        jsonl_path, _ = save_bank(bank, tmp_path / "b")
        lines = jsonl_path.read_text().splitlines()
        row = json.loads(lines[1])
        row["props"]["act"] = float("inf")
        lines[1] = json.dumps(row)
        jsonl_path.write_text("\n".join(lines) + "\n")
        loaded = load_bank(tmp_path / "b")
        assert [(r.canonical, r.fp) for r in loaded.records] == [
            (r.canonical, r.fp) for r in bank.records if r.canonical != row["smiles"]
        ]
        assert "skipping corpus row 2: non-finite property act" in caplog.text


class TestWidths:
    @pytest.mark.parametrize("width", [8, 16, 32, 64, 256, 2048, 4096])
    def test_built_bank_matches_brute_force(self, width):
        # below WIDTH the built records' bits are folded onto `width`
        # positions near the queries' bits, as a `width`-bit fingerprint
        # once folded them: few positions give many equal similarities for
        # the canonical tie-break to settle
        rng = random.Random(width)
        pool = ["CCO", "CCCO", "CCCCO", "CCN", "CCCN", "CCOC", "CC(C)O", "CCS",
                "c1ccccc1", "Cc1ccccc1", "Oc1ccccc1", "Nc1ccccc1", "CC(=O)O",
                "CC(=O)N", "FCCO", "ClCCN"]
        cases = [("CCCO", "CCO"), ("Cc1ccccc1", "Oc1ccccc1"), ("CC(=O)N", "CCN")]
        bank = build_bank([f"{s}\tact={round(rng.random(), 6)}" for s in pool])
        if width < WIDTH:
            near = 0
            for query, lead in cases:
                near |= morgan_fp(parse(query)).bits | morgan_fp(parse(lead)).bits
            positions = near_positions(near, width)
            bank = ExemplarBank([
                ExemplarRecord(
                    r.canonical, Fingerprint(scatter(fold(r.fp.bits, width), positions)),
                    r.props,
                )
                for r in bank.records
            ])
        records = list(bank.records)
        for query, lead in cases:
            query_fp = morgan_fp(parse(query))
            lead_fp = morgan_fp(parse(lead))
            got = candidate_recall(bank, parse(query), 6)
            want = sorted(
                records, key=lambda r: (-brute_tanimoto(query_fp, r.fp), r.canonical)
            )[:6]
            assert [r.canonical for r in got] == [r.canonical for r in want]
            got = retrieve_exemplars(bank, parse(query), parse(lead),
                                     act_objective(), k=3, gamma_ex=0.1, pool_size=8)
            want = brute_retrieve(records, query_fp, lead_fp, 0.1, 3, 8)
            assert [r.canonical for r in got] == [r.canonical for r in want]


class TestRenderBlock:
    def test_header_and_footer_verbatim(self):
        record = fake_record("CCO", 0b1011, 0.8915)
        block = render_exemplar_block([record], act_objective(), parse("CCCCO"))
        lines = block.splitlines()
        assert lines[0] == "=== SIMILAR HIGH-SCORING MOLECULES FOR REFERENCE ==="
        assert lines[-1] == "Learn from structural patterns, but do not copy directly."
        assert EXEMPLAR_HEADER in block and EXEMPLAR_FOOTER in block

    def test_round_half_up(self):
        record = fake_record("CCO", 0b1011, 0.8915)
        block = render_exemplar_block([record], act_objective(), parse("CCCCO"))
        assert "target score: 0.892" in block

    def test_numbering(self):
        records = [fake_record("CCO", 0b1, 0.5), fake_record("CCN", 0b10, 0.4)]
        block = render_exemplar_block(records, act_objective(), parse("CCCCO"))
        assert "1. SMILES: CCO" in block
        assert "2. SMILES: CCN" in block
        assert "Here are 2 similar molecules" in block

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_exemplar_block([], act_objective(), parse("CCO"))


HEADER = struct.calcsize("<4sHIHQ")


class TestPersistence:
    def test_round_trip_identical_retrieval(self, tmp_path):
        rng = random.Random(23)
        rows = []
        pool = ["CCO", "CCCO", "CCCCO", "CCCCCO", "CCN", "CCCN", "CCCCN",
                "CCOC", "CCCOC", "CC(C)O", "CC(C)CO", "CCS", "CCCS",
                "c1ccccc1", "Cc1ccccc1", "CCc1ccccc1", "Oc1ccccc1"]
        for i, smiles in enumerate(pool):
            rows.append(f"{smiles}\tact={round(rng.random(), 6)}")
        bank = build_bank(rows)
        save_bank(bank, tmp_path / "fixture")
        loaded = load_bank(tmp_path / "fixture")
        assert len(loaded) == len(bank)

        obj = act_objective()
        queries = [parse(s) for s in pool]
        rng2 = random.Random(29)
        for _ in range(100):
            query = rng2.choice(queries)
            lead = rng2.choice(queries)
            a = retrieve_exemplars(bank, query, lead, obj, k=3, gamma_ex=0.2)
            b = retrieve_exemplars(loaded, query, lead, obj, k=3, gamma_ex=0.2)
            assert [r.canonical for r in a] == [r.canonical for r in b]

    def test_sidecar_round_trips_bits(self, tmp_path):
        bank = build_bank(["CCO\tact=0.5", "CCN\tact=0.2"])
        save_bank(bank, tmp_path / "b")
        loaded = load_bank(tmp_path / "b")
        for orig, back in zip(bank.records, loaded.records):
            assert orig.fp == back.fp
            assert orig.props == back.props

    def test_sidecar_layout(self, tmp_path):
        bank = build_bank(["CCO\tact=1", "CCN\tact=2", "c1ccccc1\tact=3"])
        _, fp_path = save_bank(bank, tmp_path / "b")
        blob = fp_path.read_bytes()
        assert struct.unpack_from("<4sHIHQ", blob) == (b"LOFP", 1, WIDTH, 2, 3)
        block = WIDTH // 8
        assert len(blob) == HEADER + 3 * block
        for i, record in enumerate(bank.records):
            start = HEADER + i * block
            assert int.from_bytes(blob[start : start + block], "little") == record.fp.bits

    @pytest.mark.parametrize("change", ["truncated", "one_extra_byte", "short_header"])
    def test_sidecar_of_the_wrong_length_rejected(self, tmp_path, change):
        bank = build_bank(["CCO\tact=1", "CCN\tact=2", "c1ccccc1\tact=3"])
        _, fp_path = save_bank(bank, tmp_path / "b")
        blob = fp_path.read_bytes()
        cut = {"truncated": blob[: HEADER + WIDTH // 8 + 5],
               "one_extra_byte": blob + b"\0",
               "short_header": blob[: HEADER - 1]}[change]
        fp_path.write_bytes(cut)
        with pytest.raises(ValueError, match=re.escape(str(fp_path))):
            load_bank(tmp_path / "b")

    @pytest.mark.parametrize("width,radius", [(1024, 2), (2048, 3), (64, 3)])
    def test_sidecar_of_another_shape_rejected(self, tmp_path, width, radius):
        bank = build_bank(["CCO\tact=1", "CCN\tact=2"])
        _, fp_path = save_bank(bank, tmp_path / "b")
        blob = bytearray(fp_path.read_bytes())
        struct.pack_into("<4sHIHQ", blob, 0, b"LOFP", 1, width, radius, 2)
        fp_path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(str(fp_path))):
            load_bank(tmp_path / "b")


class TestFormatScore:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.8915, "0.892"), (0.5, "0.500"), (1.0, "1.000"), (0.0004, "0.000"),
         (0.0005, "0.001"), (-0.1234, "-0.123"), (-0.1235, "-0.124")],
    )
    def test_round_half_up(self, value, expected):
        assert format_score(value) == expected


class TestLargeBuild:
    def test_ten_thousand_row_build(self):
        # fluorine-anchored heteroatom chains: the F terminus breaks the
        # reversal symmetry, so every sequence is a distinct molecule
        import itertools
        rows = []
        for combo in itertools.product("CNO", repeat=9):
            rows.append("F" + "".join(combo))
            if len(rows) >= 10_000:
                break
        bank = build_bank(rows)
        assert len(bank) == 10_000
        # index buildable and queryable
        top = candidate_recall(bank, parse("CCCCCCCC"), 10)
        assert len(top) == 10


class TestFirstUseAcrossThreads:
    # in a fresh interpreter, four threads that switch every microsecond
    # make a bank's first retrievals at once, which import numpy and build
    # the planes, the canonical ranks and the score column; then a fresh
    # bank of the same records retrieves on one thread
    SCRIPT = """
import json, sys, threading
from leadopt.exembank import ExemplarBank, build_bank, retrieve_exemplars
from leadopt.molgraph import parse
from leadopt.oracles import load_objective
rows = [line for line in open(sys.argv[1]) if not line.startswith("#")][:120]
obj = load_objective("qed")
bank = build_bank(rows, oracles=[term.oracle for term in obj.terms])
assert "numpy" not in sys.modules
current, lead = parse(rows[0]), parse(rows[1])

def names(bank):
    return [r.canonical for r in retrieve_exemplars(bank, current, lead, obj, k=8, gamma_ex=0.0)]

start, found = threading.Barrier(4), [None] * 4

def first_use(i):
    start.wait()
    found[i] = names(bank)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use, args=(i,), daemon=True) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)  # a thread still running leaves its result None
print(json.dumps([found, names(ExemplarBank(bank.records))]))
"""

    def test_threads_retrieve_what_one_thread_does(self, tmp_path):
        corpus = Path(__file__).parent / "fixtures" / "corpus_500.smi"
        found, single = json.loads(fresh_python(self.SCRIPT, str(corpus), cwd=tmp_path))
        assert len(single) == 8
        assert found == [single] * 4


GOLDEN_PARSES = [
    (source, canonical)
    for source, op, _, canonical in (
        line.split("\t")
        for line in (Path(__file__).parent / "golden" / "canonical_strings.tsv")
        .read_text().splitlines()
        if not line.startswith("#")
    )
    if op == "parse" and not canonical.startswith("!")
]


class TestTextQuery:
    def test_serving_a_query_names_nothing(self, monkeypatch):
        # a query request parses the query and the lead, then retrieves and
        # renders both memories; retrieval reads only fingerprints and
        # functional groups, so no canonical search runs until a name is read
        rows = [f"{source}\tact={i / 100}"
                for i, (source, _) in enumerate(GOLDEN_PARSES[2:42])]
        bank = build_bank(rows)
        skills = SkillBank()
        for (before, _), (after, _) in zip(GOLDEN_PARSES[2:12], GOLDEN_PARSES[3:13]):
            card = build_edit_card(parse(before), parse(after), 0.1, 0.5)
            skills.insert([make_skill_card(card, "act")])
        obj = act_objective(gamma=0.0)
        (query_text, query_name), (lead_text, lead_name) = GOLDEN_PARSES[:2]
        molgraph.forget_memos()
        searches = []
        real = molgraph._canonical_string

        def counted(*args):
            searches.append(args[0])
            return real(*args)

        monkeypatch.setattr(molgraph, "_canonical_string", counted)
        query, lead = parse(query_text), parse(lead_text)
        exemplars = retrieve_exemplars(bank, query, lead, obj, gamma_ex=0.0)
        exemplar_block = render_exemplar_block(exemplars, obj, lead)
        cards = retrieve_skills(skills, query, "act", gamma_fp=0.0, gamma_fg=0.0)
        skill_block = render_skill_block(cards, "act")
        assert exemplars and cards and exemplar_block and skill_block
        assert searches == []
        assert (query.canonical, lead.canonical) == (query_name, lead_name)
        assert [m is want for m, want in zip(searches, (query, lead))] == [True, True]
        # later reads return the stored names
        assert (query.canonical, lead.canonical) == (query_name, lead_name)
        assert len(searches) == 2
