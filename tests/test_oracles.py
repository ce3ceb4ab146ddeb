import math
import re
import threading
from contextlib import closing

import pytest

from leadopt import molgraph
from leadopt.chemfeat import descriptors, morgan_fp, tanimoto
from leadopt.lineproto import ProtocolError, ProtocolTimeout
from leadopt.molgraph import parse
from leadopt.oracles import (
    BudgetExhaustedError,
    BudgetLedger,
    MissingEntryError,
    Objective,
    ObjectiveTerm,
    Oracle,
    SuccessCriterion,
    builtin_hba,
    builtin_hbd,
    builtin_logp_lite,
    builtin_mw,
    builtin_oracle,
    builtin_qed_lite,
    builtin_ring,
    builtin_sa_lite,
    check_success,
    external_oracle,
    load_objective,
    table_oracle,
)
from leadopt.oracles import _LOGP, _QED_PARAMS

MASS_H, MASS_C = 1.008, 12.011


def single_objective(oracle, comparator="ge", threshold=0.9, mode="absolute",
                     gamma=0.4, name="task"):
    return Objective(
        name=name,
        terms=(ObjectiveTerm(oracle, 1.0, SuccessCriterion(mode, comparator, threshold)),),
        gamma=gamma,
    )


class TestBuiltins:
    def test_mw_methane(self):
        assert builtin_mw(parse("C")) == MASS_C + 4 * MASS_H

    def test_ring_benzene(self):
        assert builtin_ring(parse("c1ccccc1")) == 1

    def test_hbd_ethanol(self):
        assert builtin_hbd(parse("CCO")) == 1

    def test_hba(self):
        assert builtin_hba(parse("CCO")) == 1
        assert builtin_hba(parse("NCCO")) == 2

    def test_logp_single_atom_is_single_term(self):
        table_value = 0.36  # aliphatic carbon class from the shipped table
        assert builtin_logp_lite(parse("C")) == table_value

    def test_logp_monotone_in_carbon(self):
        assert builtin_logp_lite(parse("CC")) > builtin_logp_lite(parse("C"))

    def test_logp_oxygen_below_carbon(self):
        assert builtin_logp_lite(parse("CCO")) < builtin_logp_lite(parse("CCC"))

    def test_logp_has_a_row_for_every_atom_the_parser_accepts(self):
        # a bare atom's token, or a bracket atom's element, lowercase when
        # aromatic
        accepted = set(molgraph._BARE_ATOMS)
        assert accepted == set(molgraph.SUPPORTED_ELEMENTS) | {
            element.lower() for element in molgraph._AROMATIC_OK}
        assert accepted <= set(_LOGP)
        assert builtin_logp_lite(parse("c1ccpc1")) == pytest.approx(4 * 0.29 - 0.30)
        assert builtin_logp_lite(parse("c1ccbc1")) == pytest.approx(4 * 0.29 - 0.10)

    def test_qed_of_a_chain_past_the_exponents_range(self):
        # 1,197 rotatable bonds: exp(0.6 * (1197 - 7.6)) is past the largest
        # float, so that log-desirability is read as -x
        m = parse("C" * 1200)
        vec = descriptors(m)
        assert vec.rotatable_bonds == 1197
        values = {"mw": vec.mw, "ring_count": vec.ring_count, "hbd": vec.hbd,
                  "hba": vec.hba, "psa_lite": vec.psa_lite,
                  "rotatable_bonds": vec.rotatable_bonds}
        # log(1 / (1 + e^x)) without overflow at any x
        logs = [-(max(x, 0.0) + math.log1p(math.exp(-abs(x))))
                for x in (k * (values[f] - c) for f, (c, k) in _QED_PARAMS.items())]
        expected = math.exp(sum(logs) / len(logs))
        assert 0.0 < builtin_oracle("qed_lite")(m) == pytest.approx(expected, rel=1e-12)

    def test_qed_direct_evaluation(self):
        # independent oracle: direct evaluation of the shipped parameters
        m = parse("CC(=O)Oc1ccccc1C(=O)O")
        vec = descriptors(m)
        values = {
            "mw": vec.mw,
            "ring_count": vec.ring_count,
            "hbd": vec.hbd,
            "hba": vec.hba,
            "psa_lite": vec.psa_lite,
            "rotatable_bonds": vec.rotatable_bonds,
        }
        logs = [
            math.log(1.0 / (1.0 + math.exp(k * (values[f] - c))))
            for f, (c, k) in _QED_PARAMS.items()
        ]
        expected = math.exp(sum(logs) / len(logs))
        assert builtin_qed_lite(m) == pytest.approx(expected, abs=1e-15)

    def test_qed_ring_penalty(self):
        lean = builtin_qed_lite(parse("CCO"))
        ringy = builtin_qed_lite(
            parse("C1CC2CCC1CC2")
        )
        assert 0 < ringy < lean <= 1

    def test_qed_unit_interval_on_corpus(self):
        for s in ["C", "CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O",
                  "Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C[N+](=O)[O-]"]:
            assert 0.0 < builtin_qed_lite(parse(s)) <= 1.0

    def test_sa_lite_negative_and_size_sensitive(self):
        small = builtin_sa_lite(parse("CCO"))
        big = builtin_sa_lite(parse("c1ccc2ccccc2c1"))
        assert small < 0 and big < small

    def test_directions(self):
        assert builtin_oracle("qed_lite").direction == 1
        assert builtin_oracle("sa_lite").direction == -1
        assert builtin_oracle("mw").direction == -1


class TestLedger:
    def test_first_eval_consumes_one(self):
        obj = single_objective(builtin_oracle("qed_lite"))
        ledger = BudgetLedger(10)
        ledger.evaluate(parse("CCO"), obj)
        assert ledger.consumed == 1

    def test_cache_hit_free(self):
        obj = single_objective(builtin_oracle("qed_lite"))
        ledger = BudgetLedger(10)
        first = ledger.evaluate(parse("CCO"), obj)
        second = ledger.evaluate(parse("OCC"), obj)  # same canonical molecule
        assert ledger.consumed == 1
        assert first == second

    def test_exhaustion(self):
        obj = single_objective(builtin_oracle("qed_lite"))
        ledger = BudgetLedger(1)
        ledger.evaluate(parse("CCO"), obj)
        with pytest.raises(BudgetExhaustedError):
            ledger.evaluate(parse("CCN"), obj)
        assert ledger.consumed == 1

    def test_per_term_unit(self):
        obj = Objective(
            name="two",
            terms=(
                ObjectiveTerm(builtin_oracle("qed_lite"), 0.5,
                              SuccessCriterion("absolute", "ge", 0.9)),
                ObjectiveTerm(builtin_oracle("logp_lite"), 0.5,
                              SuccessCriterion("absolute", "ge", 2.0)),
            ),
        )
        ledger = BudgetLedger(10, unit="per_term")
        ledger.evaluate(parse("CCO"), obj)
        assert ledger.consumed == 2

    def test_cache_disabled(self):
        obj = single_objective(builtin_oracle("qed_lite"))
        ledger = BudgetLedger(10, cache_enabled=False)
        ledger.evaluate(parse("CCO"), obj)
        ledger.evaluate(parse("CCO"), obj)
        assert ledger.consumed == 2

    def test_atomic_tail_of_budget(self):
        # with one unit left, exactly one of two concurrent misses wins
        obj = single_objective(builtin_oracle("qed_lite"))
        ledger = BudgetLedger(1)
        outcomes = []

        def worker(smiles):
            try:
                ledger.evaluate(parse(smiles), obj)
                outcomes.append("ok")
            except BudgetExhaustedError:
                outcomes.append("refused")

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in ("CCO", "CCN")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["ok", "refused"]
        assert ledger.consumed == 1

    def test_consumed_monotone_nondecreasing(self):
        obj = single_objective(builtin_oracle("qed_lite"))
        ledger = BudgetLedger(50)
        seen = [ledger.consumed]
        for s in ["C", "CC", "CCC", "CC", "C", "CCCC"]:
            ledger.evaluate(parse(s), obj)
            seen.append(ledger.consumed)
        assert seen == sorted(seen)
        assert ledger.consumed == 4  # four distinct molecules


class TestTableAndExternal:
    def test_table_lookup(self, tmp_path):
        table = tmp_path / "act.tsv"
        table.write_text("CCO\t0.42\nCCN\t0.10\n")
        oracle = table_oracle(table, name="act")
        assert oracle(parse("OCC")) == 0.42

    def test_table_missing_entry(self, tmp_path):
        table = tmp_path / "act.tsv"
        table.write_text("CCO\t0.42\n")
        oracle = table_oracle(table, name="act")
        with pytest.raises(MissingEntryError):
            oracle(parse("CCCC"))

    def test_table_default(self, tmp_path):
        table = tmp_path / "act.tsv"
        table.write_text("CCO\t0.42\n")
        oracle = table_oracle(table, name="act", default=0.0)
        assert oracle(parse("CCCC")) == 0.0

    def test_table_skips_comments_and_blanks_and_strips_lines(self, tmp_path, caplog):
        table = tmp_path / "act.tsv"
        table.write_text("# header\n\n  CCO\t0.42  \n\tCCN\t0.5\r\n  # indented\n")
        with caplog.at_level("WARNING", logger="leadopt.oracles"):
            oracle = table_oracle(table, name="act")
        assert (oracle(parse("OCC")), oracle(parse("NCC"))) == (0.42, 0.5)
        assert caplog.records == []

    @pytest.mark.parametrize("row", ["smiles\tvalue", "C1CC\t0.5", "CCN"])
    def test_table_skips_bad_row(self, tmp_path, caplog, row):
        # a header line, an unparseable SMILES, a row with no value
        table = tmp_path / "act.tsv"
        table.write_text(f"{row}\nCCO\t0.42\n")
        with caplog.at_level("WARNING", logger="leadopt.oracles"):
            oracle = table_oracle(table, name="act")
        assert oracle(parse("OCC")) == 0.42
        with pytest.raises(MissingEntryError):
            oracle(parse("CCN"))
        messages = [record.getMessage() for record in caplog.records]
        assert any(repr(row) in message for message in messages)
        assert any("skipped 1 bad rows" in message for message in messages)

    @pytest.mark.parametrize("endpoint", ["foo:bar", "tcp:nohost", "proc:"])
    def test_external_malformed_endpoint_rejected_when_made(self, endpoint):
        with pytest.raises(ValueError):
            external_oracle(endpoint, name="act")

    def test_external_undecodable_reply_raises(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "replies = [b'OK 0.\\xff\\n', b'OK 0.5\\n']\n"
            "for line, reply in zip(sys.stdin, replies):\n"
            "    sys.stdout.buffer.write(reply)\n"
            "    sys.stdout.flush()\n"
        )
        oracle = external_oracle(f"proc:python3 {stub}", name="bad", timeout=10.0)
        with closing(oracle.fn):
            with pytest.raises(ProtocolError):
                oracle(parse("CCO"))
            # the bad line is consumed: the next request reads its own reply
            assert oracle(parse("CCN")) == 0.5

    def test_external_echo_stub(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('OK 0.0\\n')\n"
            "    sys.stdout.flush()\n"
        )
        oracle = external_oracle(f"proc:python3 {stub}", name="zero", timeout=10.0)
        with closing(oracle.fn):
            assert oracle(parse("CCO")) == 0.0

    def test_external_error_reply(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('ERR no model\\n')\n"
            "    sys.stdout.flush()\n"
        )
        oracle = external_oracle(f"proc:python3 {stub}", name="bad", timeout=10.0)
        with closing(oracle.fn), pytest.raises(ProtocolError):
            oracle(parse("CCO"))

    def test_external_reopens_after_a_timeout(self, tmp_path):
        # the first child stalls past the timeout on its first request, so
        # that connection is retired; the next requests reach a fresh child
        stub = tmp_path / "stub.py"
        marker = tmp_path / "stalled"
        stub.write_text(
            "import os, sys, time\n"
            "for line in sys.stdin:\n"
            f"    if not os.path.exists({str(marker)!r}):\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        time.sleep(0.6)\n"
            "    sys.stdout.write('OK 0.25\\n')\n"
            "    sys.stdout.flush()\n"
        )
        oracle = external_oracle(f"proc:python3 {stub}", name="slow", timeout=0.2)
        with closing(oracle.fn):
            with pytest.raises(ProtocolTimeout):
                oracle(parse("CCO"))
            assert [oracle(parse(s)) for s in ("CCO", "CCN", "CCC")] == [0.25] * 3

    def test_external_keeps_the_connection_on_bad_replies(self, tmp_path):
        # the child numbers its requests: the third answer comes from the
        # child that sent the ERR and the malformed reply
        stub = tmp_path / "stub.py"
        stub.write_text(
            "import sys\n"
            "replies = ['ERR no model', 'garbage']\n"
            "for n, line in enumerate(sys.stdin, 1):\n"
            "    sys.stdout.write((replies[n - 1] if n <= 2 else f'OK {n}') + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        oracle = external_oracle(f"proc:python3 {stub}", name="bad", timeout=10.0)
        with closing(oracle.fn):
            for _ in range(2):
                with pytest.raises(ProtocolError):
                    oracle(parse("CCO"))
            assert oracle(parse("CCO")) == 3.0


class TestCheckSuccess:
    def _abs_objective(self, threshold=0.9, gamma=0.4):
        oracle = Oracle("qed", lambda m: 0.0)
        return single_objective(oracle, threshold=threshold, gamma=gamma)

    def test_single_task_pass(self):
        obj = self._abs_objective()
        lead, cand = parse("CCCCO"), parse("CCCCCO")
        sim = tanimoto(morgan_fp(lead), morgan_fp(cand))
        assert sim >= 0.4
        assert check_success(lead, cand, obj, {"qed": 0.92}, {"qed": 0.5})

    def test_similarity_constraint_blocks(self):
        obj = self._abs_objective()
        lead, cand = parse("CCO"), parse("c1ccc2ccccc2c1")
        sim = tanimoto(morgan_fp(lead), morgan_fp(cand))
        assert sim < 0.4
        assert not check_success(lead, cand, obj, {"qed": 0.92}, {"qed": 0.5})

    def test_multi_task_all_thresholds_required(self):
        qed = Oracle("qed", lambda m: 0.0)
        plogp = Oracle("plogp", lambda m: 0.0)
        obj = Objective(
            name="qed+plogp",
            terms=(
                ObjectiveTerm(qed, 0.5, SuccessCriterion("delta", "ge", 0.1)),
                ObjectiveTerm(plogp, 0.5, SuccessCriterion("delta", "ge", 1.0)),
            ),
        )
        lead, cand = parse("CCCCO"), parse("CCCCCO")
        lead_values = {"qed": 0.5, "plogp": 1.0}
        # qed improves by 0.12 but plogp only by 0.4: fail
        assert not check_success(lead, cand, obj,
                                 {"qed": 0.62, "plogp": 1.4}, lead_values)
        assert check_success(lead, cand, obj,
                             {"qed": 0.62, "plogp": 2.2}, lead_values)

    def test_sa_direction_delta(self):
        sa = Oracle("sa", lambda m: 0.0, direction=-1)
        obj = single_objective(sa, comparator="le", threshold=-0.5, mode="delta")
        lead, cand = parse("CCCCO"), parse("CCCCCO")
        assert check_success(lead, cand, obj, {"sa": -3.2}, {"sa": -2.5})
        assert not check_success(lead, cand, obj, {"sa": -2.6}, {"sa": -2.5})

    def test_monotone_in_similarity(self):
        # raising similarity never flips success to failure: identical
        # candidate (sim 1.0) passes whenever a distant one does
        obj = self._abs_objective()
        lead = parse("CCCCO")
        near, same = parse("CCCCCO"), parse("CCCCO")
        values, lead_values = {"qed": 0.95}, {"qed": 0.5}
        if check_success(lead, near, obj, values, lead_values):
            assert check_success(lead, same, obj, values, lead_values)

    def test_comparator_direction_agreement_enforced(self):
        sa = Oracle("sa", lambda m: 0.0, direction=-1)
        with pytest.raises(ValueError):
            ObjectiveTerm(sa, 1.0, SuccessCriterion("absolute", "ge", -2.5))


class TestObjectiveConfig:
    def test_weights_normalized(self):
        obj = Objective(
            name="x",
            terms=(
                ObjectiveTerm(builtin_oracle("qed_lite"), 2.0,
                              SuccessCriterion("absolute", "ge", 0.9)),
                ObjectiveTerm(builtin_oracle("logp_lite"), 2.0,
                              SuccessCriterion("absolute", "ge", 2.0)),
            ),
        )
        assert sum(t.weight for t in obj.terms) == pytest.approx(1.0)

    def test_aggregate_direction_signed(self):
        obj = Objective(
            name="x",
            terms=(
                ObjectiveTerm(builtin_oracle("qed_lite"), 1.0,
                              SuccessCriterion("absolute", "ge", 0.9)),
                ObjectiveTerm(builtin_oracle("sa_lite"), 1.0,
                              SuccessCriterion("absolute", "le", -2.5)),
            ),
        )
        agg = obj.aggregate({"qed_lite": 0.8, "sa_lite": -2.0})
        assert agg == pytest.approx(0.5 * 0.8 + 0.5 * (-1) * (-2.0))

    def test_load_preset(self):
        obj = load_objective("qed")
        assert obj.name == "qed"
        assert obj.gamma == 0.4
        assert obj.budget == 500
        assert obj.terms[0].criterion.threshold == 0.9

    def test_load_multi_preset(self):
        obj = load_objective("qed_plogp")
        assert len(obj.terms) == 2
        modes = {t.criterion.mode for t in obj.terms}
        assert modes == {"delta"}

    def test_load_with_table_oracle(self, tmp_path):
        table = tmp_path / "drd2.tsv"
        table.write_text("CCO\t0.9\n")
        cfg = tmp_path / "obj.yaml"
        cfg.write_text(
            "name: drd2\n"
            "gamma: 0.4\n"
            "oracles:\n"
            "  - {name: drd2, kind: table, path: drd2.tsv, direction: 1}\n"
            "terms:\n"
            "  - oracle: drd2\n"
            "    success: {comparator: '>=', threshold: 0.8}\n"
        )
        obj = load_objective(cfg)
        assert obj.terms[0].oracle(parse("CCO")) == 0.9

    @pytest.mark.parametrize("default, expected", [("0", 0.0), ("0.25", 0.25)])
    def test_table_default_is_a_float(self, tmp_path, default, expected):
        (tmp_path / "drd2.tsv").write_text("CCO\t0.9\n")
        cfg = tmp_path / "obj.yaml"
        cfg.write_text(
            "oracles:\n"
            f"  - {{name: drd2, kind: table, path: drd2.tsv, default: {default}}}\n"
            "terms:\n"
            "  - oracle: drd2\n"
            "    success: {comparator: '>=', threshold: 0.8}\n"
        )
        got = load_objective(cfg).terms[0].oracle(parse("CCN"))
        assert type(got) is float and got == expected

    def test_non_numeric_table_default_fails_at_load(self, tmp_path):
        (tmp_path / "drd2.tsv").write_text("CCO\t0.9\n")
        cfg = tmp_path / "obj.yaml"
        cfg.write_text(
            "oracles:\n"
            "  - {name: drd2, kind: table, path: drd2.tsv, default: 'n/a'}\n"
            "terms:\n"
            "  - oracle: drd2\n"
            "    success: {comparator: '>=', threshold: 0.8}\n"
        )
        with pytest.raises(ValueError, match="n/a"):
            load_objective(cfg)

    @pytest.mark.parametrize("text, message", [
        ("", "the file must be a mapping, not NoneType"),
        ("- qed_lite\n", "the file must be a mapping, not list"),
        ("name: x\n", "needs a list of terms"),
        ("terms: qed_lite\n", "needs a list of terms"),
        ("terms:\n  - qed_lite\n", "each term must be a mapping, not str"),
        ("terms:\n  - {oracle: qed_lite, success: 0.9}\n",
         "each term's success must be a mapping, not float"),
        ("oracles: [drd2]\nterms: []\n", "each oracle must be a mapping, not str"),
    ])
    def test_a_malformed_file_fails_naming_itself(self, tmp_path, text, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'objective {cfg}: {message}')}$"):
            load_objective(cfg)

    @pytest.mark.parametrize("text, message", [
        ("terms:\n  - {oracle: qed_lite, success: {comparator: '>='}}\n",
         "each term's success needs the field 'threshold'"),
        ("terms:\n  - {oracle: no_such, success: {threshold: 0.9}}\n",
         "a term's oracle 'no_such' is neither built in nor listed under oracles"),
        ("terms:\n  - {success: {threshold: 0.9}}\n", "each term needs the field 'oracle'"),
        ("oracles:\n  - {kind: table, path: drd2.tsv}\nterms: []\n",
         "each oracle needs the field 'name'"),
        ("oracles:\n  - {name: drd2, kind: table}\nterms: []\n",
         "each table oracle needs the field 'path'"),
        ("oracles:\n  - {name: drd2, kind: external}\nterms: []\n",
         "each external oracle needs the field 'endpoint'"),
        ("terms:\n  - {oracle: qed_lite, success: {comparator: '>>', threshold: 0.9}}\n",
         "a term's success comparator must be one of >=, <=, ge, le, not '>>'"),
        ("terms:\n  - {oracle: {name: qed_lite}, success: {threshold: 0.9}}\n",
         "a term's oracle must be a name, not dict"),
        ("terms:\n  - {oracle: qed_lite, direction: up, success: {threshold: 0.9}}\n",
         "a term's direction must be 1 or -1, not 'up'"),
        ("oracles:\n  - {name: drd2, path: drd2.tsv, direction: down}\nterms: []\n",
         "an oracle's direction must be 1 or -1, not 'down'"),
        ("terms:\n  - {oracle: qed_lite, direction: 2, success: {threshold: 0.9}}\n",
         "a term's direction must be 1 or -1, not 2"),
        ("terms:\n  - {oracle: qed_lite, direction: 1.5, success: {threshold: 0.9}}\n",
         "a term's direction must be 1 or -1, not 1.5"),
        ("oracles:\n  - {name: drd2, path: drd2.tsv, direction: true}\nterms: []\n",
         "an oracle's direction must be 1 or -1, not True"),
        ("terms:\n  - {oracle: qed_lite, success: {mode: bogus, threshold: 0.9}}\n",
         "a term's success mode must be one of absolute, delta, not 'bogus'"),
    ])
    def test_a_missing_or_unknown_field_fails_naming_the_file(self, tmp_path, text, message):
        # each of these raised a KeyError, a TypeError or a ValueError that
        # named neither the file nor the field
        (tmp_path / "drd2.tsv").write_text("CCO\t0.9\n")
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'objective {cfg}: {message}')}$"):
            load_objective(cfg)

    TERM = "terms:\n  - {oracle: qed_lite, success: {threshold: 0.9}}\n"

    @pytest.mark.parametrize("text, message", [
        ("budget: 1.7\n" + TERM, "budget must be a positive int, not 1.7"),
        ("budget: true\n" + TERM, "budget must be a positive int, not True"),
        ("budget: 0\n" + TERM, "budget must be a positive int, not 0"),
        ("budget: -5\n" + TERM, "budget must be a positive int, not -5"),
        ("gamma: abc\n" + TERM, "gamma must be a number, not 'abc'"),
        ("gamma: [1]\n" + TERM, "gamma must be a number, not [1]"),
        ("terms:\n  - {oracle: qed_lite, weight: true, success: {threshold: 0.9}}\n",
         "a term's weight must be a number, not True"),
        ("terms:\n  - {oracle: qed_lite, weight: abc, success: {threshold: 0.9}}\n",
         "a term's weight must be a number, not 'abc'"),
        ("terms:\n  - {oracle: qed_lite, success: {threshold: abc}}\n",
         "a term's success threshold must be a number, not 'abc'"),
        ("oracles:\n  - {name: drd2, path: drd2.tsv, default: '0.25'}\nterms: []\n",
         "a table oracle's default must be a number, not '0.25'"),
        ("oracles:\n  - {name: drd2, kind: external, endpoint: 'proc:x', timeout: 0}\n"
         "terms: []\n", "an external oracle's timeout must be a positive number, not 0"),
        ("oracles:\n  - {name: drd2, kind: external, endpoint: 'proc:x', timeout: abc}\n"
         "terms: []\n", "an external oracle's timeout must be a positive number, not 'abc'"),
    ])
    def test_a_number_of_another_type_fails_naming_the_field(self, tmp_path, text, message):
        # no field is coerced, and each message names the file and the field
        (tmp_path / "drd2.tsv").write_text("CCO\t0.9\n")
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'objective {cfg}: {message}')}$"):
            load_objective(cfg)

    def test_a_quoted_direction_still_loads(self, tmp_path):
        cfg = tmp_path / "obj.yaml"
        cfg.write_text("terms:\n  - {oracle: qed_lite, direction: '-1', success: {comparator: '<=', threshold: 0.9}}\n")
        assert load_objective(cfg).terms[0].oracle.direction == -1

    @pytest.mark.parametrize("weight, threshold, message", [
        (".nan", "0.9", "term weight must be finite, not nan"),
        (".inf", "0.9", "term weight must be finite, not inf"),
        ("1.0", ".nan", "criterion threshold must be finite, not nan"),
        ("1.0", "-.inf", "criterion threshold must be finite, not -inf"),
    ])
    def test_non_finite_numbers_are_rejected(self, tmp_path, weight, threshold, message):
        # a NaN weight made every score NaN, and a NaN threshold never held
        cfg = tmp_path / "obj.yaml"
        cfg.write_text(
            "terms:\n"
            "  - oracle: qed_lite\n"
            f"    weight: {weight}\n"
            f"    success: {{comparator: '>=', threshold: {threshold}}}\n"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_objective(cfg)

    def test_property_description(self):
        assert load_objective("qed").property_description() == \
            "increase drug-likeness (QED)"
        multi = load_objective("qed_plogp").property_description()
        assert "drug-likeness" in multi and "lipophilicity" in multi


class TestExternalTcp:
    def test_external_oracle_over_tcp(self):
        import socketserver
        import threading

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                for raw in self.rfile:
                    line = raw.decode("utf-8").strip()
                    if line.startswith("EVAL "):
                        self.wfile.write(b"OK 0.25\n")
                    else:
                        self.wfile.write(b"ERR unknown verb\n")
                    self.wfile.flush()

        class Server(socketserver.ThreadingTCPServer):
            # the oracle holds its connection open; never join handlers
            daemon_threads = True
            block_on_close = False
            allow_reuse_address = True

        server = Server(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            oracle = external_oracle(f"tcp:{host}:{port}", name="tcpact",
                                     timeout=5.0)
            with closing(oracle.fn):
                assert oracle(parse("CCO")) == 0.25
                assert oracle(parse("CCN")) == 0.25
        finally:
            server.shutdown()
            server.server_close()
