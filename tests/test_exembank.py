import random
import struct

import pytest

from leadopt.chemfeat import Fingerprint, morgan_fp
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
from leadopt.molgraph import parse
from leadopt.oracles import (
    Objective,
    ObjectiveTerm,
    Oracle,
    SuccessCriterion,
    builtin_oracle,
)


def fake_record(name: str, bits: int, score: float, width=64) -> ExemplarRecord:
    return ExemplarRecord(name, Fingerprint(bits, width=width), {"act": score})


def act_objective(gamma=0.4):
    oracle = Oracle("act", lambda m: 0.0)
    return Objective(
        name="act",
        terms=(ObjectiveTerm(oracle, 1.0, SuccessCriterion("absolute", "ge", 0.9)),),
        gamma=gamma,
    )


def brute_tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    inter = bin(a.bits & b.bits).count("1")
    union = a.popcount + b.popcount - inter
    return 1.0 if union == 0 else inter / union


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
        records = [
            fake_record(f"M{i:04d}", rng.getrandbits(64), rng.random())
            for i in range(1000)
        ]
        bank = ExemplarBank(records, width=64)
        query = parse("CCCCO")
        query_fp = morgan_fp(query, bank.radius, bank.width)
        got = candidate_recall(bank, query, 50)
        expected = sorted(
            records, key=lambda r: (-brute_tanimoto(query_fp, r.fp), r.canonical)
        )[:50]
        assert [r.canonical for r in got] == [r.canonical for r in expected]


class TestRetrieveExemplars:
    def test_single_filter_survivor(self):
        lead = parse("CCCCO")
        lead_fp = morgan_fp(lead, width=64)
        near = fake_record("NEAR", lead_fp.bits, 0.1)
        far = fake_record("FAR", 1 << 63, 0.99)
        bank = ExemplarBank([near, far], width=64)
        got = retrieve_exemplars(bank, lead, lead, act_objective(), k=2, gamma_ex=0.9)
        assert [r.canonical for r in got] == ["NEAR"]

    def test_gamma_zero_is_pure_score_ranking(self):
        rng = random.Random(5)
        records = [
            fake_record(f"M{i:03d}", rng.getrandbits(64), round(rng.random(), 6))
            for i in range(50)
        ]
        bank = ExemplarBank(records, width=64)
        got = retrieve_exemplars(
            bank, parse("CCCCO"), parse("CCCCO"), act_objective(), k=5,
            gamma_ex=0.0, pool_size=100,
        )
        top_scores = sorted((r.props["act"] for r in records), reverse=True)[:5]
        assert [r.props["act"] for r in got] == top_scores

    def test_every_result_passes_lead_filter(self):
        rng = random.Random(9)
        records = [
            fake_record(f"M{i:03d}", rng.getrandbits(64), rng.random())
            for i in range(200)
        ]
        bank = ExemplarBank(records, width=64)
        lead = parse("CCCCO")
        lead_fp = morgan_fp(lead, bank.radius, bank.width)
        got = retrieve_exemplars(bank, parse("CCO"), lead, act_objective(),
                                 k=10, gamma_ex=0.2, pool_size=200)
        for record in got:
            assert brute_tanimoto(record.fp, lead_fp) >= 0.2

    def test_matches_brute_force_pipeline(self):
        rng = random.Random(13)
        records = [
            fake_record(f"M{i:03d}", rng.getrandbits(64), round(rng.random(), 6))
            for i in range(100)
        ]
        bank = ExemplarBank(records, width=64)
        current, lead = parse("CCO"), parse("CCCCO")
        got = retrieve_exemplars(bank, current, lead, act_objective(), k=4,
                                 gamma_ex=0.1, pool_size=40)
        expected = brute_retrieve(
            records,
            morgan_fp(current, bank.radius, bank.width),
            morgan_fp(lead, bank.radius, bank.width),
            0.1, 4, 40,
        )
        assert [r.canonical for r in got] == [r.canonical for r in expected]

    def test_result_sorted_by_score(self):
        rng = random.Random(17)
        records = [
            fake_record(f"M{i:03d}", rng.getrandbits(64), rng.random())
            for i in range(80)
        ]
        bank = ExemplarBank(records, width=64)
        got = retrieve_exemplars(bank, parse("CCO"), parse("CCO"),
                                 act_objective(), k=8, gamma_ex=0.0, pool_size=80)
        scores = [r.props["act"] for r in got]
        assert scores == sorted(scores, reverse=True)


class TestWidths:
    @pytest.mark.parametrize("width", [8, 16, 32, 64, 256, 2048, 4096])
    def test_built_bank_matches_brute_force(self, width):
        # widths below 64 bits pad each index row to one whole word
        rng = random.Random(width)
        pool = ["CCO", "CCCO", "CCCCO", "CCN", "CCCN", "CCOC", "CC(C)O", "CCS",
                "c1ccccc1", "Cc1ccccc1", "Oc1ccccc1", "Nc1ccccc1", "CC(=O)O",
                "CC(=O)N", "FCCO", "ClCCN"]
        bank = build_bank(
            [f"{s}\tact={round(rng.random(), 6)}" for s in pool], width=width
        )
        records = list(bank.records)
        for query, lead in [("CCCO", "CCO"), ("Cc1ccccc1", "Oc1ccccc1"),
                            ("CC(=O)N", "CCN")]:
            query_fp = morgan_fp(parse(query), bank.radius, width)
            lead_fp = morgan_fp(parse(lead), bank.radius, width)
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
        record = fake_record("CCO", 0b1011, 0.8915, width=64)
        block = render_exemplar_block([record], act_objective(), parse("CCCCO"))
        lines = block.splitlines()
        assert lines[0] == "=== SIMILAR HIGH-SCORING MOLECULES FOR REFERENCE ==="
        assert lines[-1] == "Learn from structural patterns, but do not copy directly."
        assert EXEMPLAR_HEADER in block and EXEMPLAR_FOOTER in block

    def test_round_half_up(self):
        record = fake_record("CCO", 0b1011, 0.8915, width=64)
        block = render_exemplar_block([record], act_objective(), parse("CCCCO"))
        assert "target score: 0.892" in block

    def test_numbering(self):
        records = [fake_record("CCO", 0b1, 0.5, 64), fake_record("CCN", 0b10, 0.4, 64)]
        block = render_exemplar_block(records, act_objective(), parse("CCCCO"))
        assert "1. SMILES: CCO" in block
        assert "2. SMILES: CCN" in block
        assert "Here are 2 similar molecules" in block

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_exemplar_block([], act_objective(), parse("CCO"))


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


    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_round_trip_below_one_byte(self, tmp_path, width):
        # a fingerprint narrower than a byte still takes one sidecar byte
        bank = build_bank(["CCO\tact=1", "CCN\tact=2", "c1ccccc1\tact=3"], width=width)
        _, fp_path = save_bank(bank, tmp_path / "b")
        assert fp_path.stat().st_size == struct.calcsize("<4sHIHQ") + len(bank)
        loaded = load_bank(tmp_path / "b")
        assert loaded.width == width
        assert [r.fp for r in loaded.records] == [r.fp for r in bank.records]
        assert [r.canonical for r in loaded.records] == [r.canonical for r in bank.records]


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
