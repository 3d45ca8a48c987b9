import dataclasses
import gc
import json
import weakref

import pytest

from cogrules import critic_tree, ltl
from cogrules.critic_tree import (CriticTree, CriticTreeConfig, CriticVerdict,
                                  parse_verdict)
from cogrules.gateway import BackendSpec, CriticEnsembleSpec, Session
from conftest import scripted_spec, single_critic_ensemble


def make_tree(revisor_fn, critic_fn, num_critics=1, max_depth=1, **kwargs):
    cfg = CriticTreeConfig(
        num_critics=num_critics, max_depth=max_depth,
        revisor=scripted_spec(revisor_fn),
        critics=single_critic_ensemble(critic_fn), **kwargs)
    return CriticTree(cfg, Session())


class TestVerdictProtocol:
    def test_approved(self):
        assert parse_verdict("APPROVED") == CriticVerdict(approved=True)

    def test_revise_with_feedback(self):
        v = parse_verdict("REVISE: missing negation on c")
        assert not v.approved
        assert v.feedback == "missing negation on c"

    def test_garbage_is_disapproval_with_raw_text(self):
        raw = "¯\\_(ツ)_/¯"
        v = parse_verdict(raw)
        assert not v.approved
        assert v.feedback == raw


class TestRun:
    def test_all_approve_returns_root_after_delta_calls(self):
        tree = make_tree(lambda m: "G (a -> b)", lambda m: "APPROVED",
                         num_critics=3, max_depth=2)
        formula, trace = tree.run("text", "G a")
        assert formula == "G (a -> b)"
        assert trace.revisor_calls == 1
        assert trace.critic_calls == 3
        assert len(trace.nodes) == 1
        assert not trace.fallback

    def test_reject_then_approve_child(self):
        # critic rejects the root once, approves the revision
        state = {"calls": 0}
        def critic(m):
            state["calls"] += 1
            return "REVISE: wrong operator" if state["calls"] == 1 else "APPROVED"
        def revisor(m):
            if any("wrong operator" in msg.content for msg in m):
                return "G (a -> b)"
            return "F a"
        tree = make_tree(revisor, critic, num_critics=1, max_depth=1)
        formula, trace = tree.run("text", "F a")
        assert formula == "G (a -> b)"
        assert len(trace.nodes) == 2
        assert trace.revisor_calls == 2
        assert trace.critic_calls == 2
        assert trace.returned_node == 1

    def test_depth_exhaustion_returns_root(self):
        revisions = iter(f"G (a -> b{i})" for i in range(100))
        tree = make_tree(lambda m: next(revisions), lambda m: "REVISE: no",
                         num_critics=2, max_depth=0)
        formula, trace = tree.run("text", "G a")
        # root plus two unexplored children beyond the depth budget
        assert formula == "G (a -> b0)"
        assert trace.fallback
        assert len(trace.nodes) == 3
        assert trace.nodes[0].children == [1, 2]
        assert all(not trace.nodes[i].verdicts for i in (1, 2))

    def test_unparseable_revision_kept_and_flagged(self):
        tree = make_tree(lambda m: "not ( valid", lambda m: "APPROVED")
        formula, trace = tree.run("text", "x")
        assert formula == "not ( valid"
        assert trace.nodes[0].parse_ok is False

    def test_empty_text_rejected(self):
        tree = make_tree(lambda m: "a", lambda m: "APPROVED")
        with pytest.raises(ValueError):
            tree.run("", "a")


class TestParse:
    """The tree parses each distinct formula text once per run."""

    @staticmethod
    def count_parses(monkeypatch):
        parsed = []
        parse = ltl.parse

        def counting(text):
            parsed.append(text)
            return parse(text)
        monkeypatch.setattr(critic_tree.ltl, "parse", counting)
        return parsed

    def test_repeated_revisions_parse_once(self, monkeypatch):
        parsed = self.count_parses(monkeypatch)
        revisions = iter(["G (a -> b)", "not ( valid", "G (a -> b)", "not ( valid",
                          "F c", "G (a -> b)", "not ( valid"] * 3)
        tree = make_tree(lambda m: next(revisions), lambda m: "REVISE: again",
                         num_critics=2, max_depth=1)
        for text in ("text", "other text"):
            parsed.clear()
            formula, trace = tree.run(text, "G a")
            texts = [n.formula_text for n in trace.nodes]
            assert len(texts) == 7 and len(set(texts)) == 3
            assert sorted(parsed) == sorted(set(texts))
            for node in trace.nodes:
                assert node.parse_ok == (node.formula_text != "not ( valid")
            tree.parse(formula)  # the caller's parse of the result is a memo hit
            assert len(parsed) == 3

    def test_parse_returns_the_result_or_the_error(self, monkeypatch):
        expected = ltl.parse("G (a -> b)")
        with pytest.raises(ltl.ParseError) as raised:
            ltl.parse("G (a ->")
        parsed = self.count_parses(monkeypatch)
        tree = make_tree(lambda m: "G a", lambda m: "APPROVED")
        formula = tree.parse("G (a -> b)")
        assert formula == expected
        error = tree.parse("G (a ->")
        assert isinstance(error, ltl.ParseError)
        assert str(error) == str(raised.value)
        assert tree.parse("G (a -> b)") is formula
        assert tree.parse("G (a ->") is error
        assert parsed == ["G (a -> b)", "G (a ->"]

    def test_tree_is_freed_without_the_cycle_collector(self):
        tree = make_tree(lambda m: "not ( valid", lambda m: "APPROVED")
        tree.run("text", "x")
        assert isinstance(tree.parse("not ( valid"), ltl.ParseError)
        ref = weakref.ref(tree)
        gc.disable()
        try:
            del tree
            assert ref() is None
        finally:
            gc.enable()


class TestInvariants:
    def test_prefix_property(self):
        counter = iter(range(1000))
        tree = make_tree(lambda m: f"G (a -> b{next(counter)})",
                         lambda m: "REVISE: keep going",
                         num_critics=2, max_depth=2)
        _, trace = tree.run("text", "G a")
        for node in trace.nodes:
            if node.parent is None:
                continue
            parent = trace.nodes[node.parent]
            assert node.context[:len(parent.context)] == parent.context
            assert node.depth == parent.depth + 1

    def test_termination_bound(self):
        delta, depth = 2, 2
        # the critics approve only `approved`; f5 is the third of four nodes at depth 2
        for approved, judged in (("never", 7), ("f5", 6)):
            counter = iter(range(10_000))
            tree = make_tree(lambda m: f"f{next(counter)}",
                             lambda m: ("APPROVED" if m[-1].content.endswith(f"Formula: {approved}")
                                        else "REVISE: nope"),
                             num_critics=delta, max_depth=depth)
            formula, trace = tree.run("text", "f")
            # nodes per level bounded by delta * previous level
            assert len(trace.nodes) <= sum(delta ** d for d in range(depth + 2))
            assert trace.revisor_calls == len(trace.nodes)
            # breadth-first: nodes in level order, and the judged ones are a prefix
            depths = [n.depth for n in trace.nodes]
            assert depths == sorted(depths)
            assert [bool(n.verdicts) for n in trace.nodes] == \
                [True] * judged + [False] * (len(trace.nodes) - judged)
            assert trace.critic_calls == delta * judged
            assert trace.fallback == (approved == "never")
            assert formula == trace.returned == ("f0" if trace.fallback else approved)

    def test_early_return_stops_expansion(self):
        def critic(m):
            return "APPROVED" if "fixed" in m[-1].content else "REVISE: broken"
        tree = make_tree(lambda m: "fixed" if len(m) > 3 else "broken_root",
                         critic, num_critics=1, max_depth=3)
        formula, trace = tree.run("text", "x")
        assert formula == "fixed"
        approved_node = trace.nodes[trace.returned_node]
        assert all(v.approved for v in approved_node.verdicts)
        # no node deeper than the approved one was judged
        assert all(not n.verdicts for n in trace.nodes
                   if n.depth > approved_node.depth)

    def test_self_refine_degenerate_constructible(self):
        tree = make_tree(lambda m: "G (a -> b)", lambda m: "REVISE: no",
                         num_critics=1, max_depth=0)
        formula, trace = tree.run("text", "G a")
        assert formula == "G (a -> b)"
        distinct = {n.formula_text for n in trace.nodes}
        assert len(distinct) <= 2  # one critique round only

    def test_trace_serializes(self):
        tree = make_tree(lambda m: "G (a -> b)", lambda m: "APPROVED")
        _, trace = tree.run("text", "G a")
        payload = trace.to_json()
        assert "G (a -> b)" in json.dumps(payload, sort_keys=True)
        assert payload["revisor_calls"] == 1
        assert set(payload) == {"returned", "returned_node", "fallback", "revisor_calls",
                                "critic_calls", "nodes"}

    def test_event_numbers_restart_with_each_trace(self):
        # a reused tree gives the same trace as a fresh one
        def build():
            return make_tree(lambda m: "G (a -> b)", lambda m: "APPROVED")
        tree = build()
        tree.run("first text", "G a")
        _, second = tree.run("second text", "G b")
        _, fresh = build().run("second text", "G b")
        assert second.to_json() == fresh.to_json()


class TestEnsemble:
    """Each critic call goes to a member drawn from the seeded weights."""

    @staticmethod
    def picks(weights, seed, calls):
        picked = []

        def member(i):
            return scripted_spec(lambda m: picked.append(i) or "APPROVED")
        cfg = CriticTreeConfig(
            num_critics=calls, max_depth=0, revisor=scripted_spec(lambda m: "G a"),
            critics=CriticEnsembleSpec(
                members=[(member(i), w) for i, w in enumerate(weights)], seed=seed))
        CriticTree(cfg, Session()).run("text", "G a")
        return picked

    def test_degenerate_distribution(self):
        assert self.picks([1.0], seed=1, calls=50) == [0] * 50

    def test_even_split_frequency(self):
        picked = self.picks([0.5, 0.5], seed=123, calls=10_000)
        assert abs(picked.count(0) / len(picked) - 0.5) <= 0.02

    def test_same_seed_same_sequence(self):
        picked = self.picks([0.5, 0.5], seed=7, calls=200)
        assert picked == self.picks([0.5, 0.5], seed=7, calls=200)
        assert set(picked) == {0, 1}


class TestReplay:
    def test_members_sharing_a_model_replay_in_recorded_order(self, tmp_path):
        """Both critics have model "" and one transcript, so their verdicts
        share request hashes; replay must return them in recorded order."""
        transcript = str(tmp_path / "transcript.jsonl")

        def tree(revisor, approve, reject):
            cfg = CriticTreeConfig(
                num_critics=2, max_depth=1, revisor=revisor,
                critics=CriticEnsembleSpec(members=[(approve, 0.5), (reject, 0.5)], seed=3))
            return CriticTree(cfg, Session())

        def recorded(fn):
            return dataclasses.replace(scripted_spec(fn), record_path=transcript)
        _, trace = tree(recorded(lambda m: f"G (a -> b{len(m)})"),
                        recorded(lambda m: "APPROVED"),
                        recorded(lambda m: "REVISE: wrong atom")).run("text", "G a")
        expected = trace.to_json()
        assert [[v["approved"] for v in n["verdicts"]] for n in expected["nodes"]] == \
            [[True, False], [True, False], []]

        replay = BackendSpec(kind="replay", transcript_path=transcript)
        _, replayed = tree(replay, replay, replay).run("text", "G a")
        assert replayed.to_json() == expected
