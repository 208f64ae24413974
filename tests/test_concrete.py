import pytest

from polyheap.concrete import BudgetExhausted, ConcreteState, run, run_function, unreached
from polyheap.models import get_model
from polyheap.outcomes import ERR, MISS, OK
from polyheap.parser import parse_program
from polyheap.syntax import Action, Assign, Bin, IfElse, ImplContext, Lit, PVar, Seq, Skip
from polyheap.values import NIL, TRUE


@pytest.fixture
def lin():
    return get_model("linear").cmm


def test_skip_unchanged(lin):
    st = ConcreteState({}, {})
    assert run(ImplContext(), st, Skip(), lin) == [(OK, st)]


def test_lookup_examples(lin):
    st = ConcreteState({"x": 0}, {1: 5})
    [(o, st2)] = run(ImplContext(), st, Action(("x",), "lookup", (Lit(1),)), lin)
    assert o is OK and st2.store["x"] == 5 and st2.mem == {1: 5}

    st = ConcreteState({"x": 0}, {})
    [(o, st2)] = run(ImplContext(), st, Action(("x",), "lookup", (Lit(1),)), lin)
    assert o is MISS and st2.store["err"] == ("MissingCell", 1)


def test_error_variable_conventions(lin):
    st = ConcreteState({"x": 0}, {})
    [(o, st2)] = run(ImplContext(), st, Assign("x", PVar("nope")), lin)
    assert o is ERR and st2.store["err"] == "ExprEval"
    [(o, st2)] = run(ImplContext(), st, IfElse(Lit(3), Skip(), Skip()), lin)
    assert o is ERR and st2.store["err"] == "Type"


def test_fresh_address_enumeration(lin):
    st = ConcreteState({"x": 0}, {0: 7})
    results = run(ImplContext(), st, Action(("x",), "new", ()), lin, max_addresses=3)
    addresses = sorted(st2.store["x"] for _, st2 in results)
    assert addresses == [1, 2, 3]
    assert all(o is OK for o, _ in results)


def test_determinism_for_action_free_commands(lin):
    cmd = Seq(Assign("x", Lit(1)), IfElse(Bin("<", PVar("x"), Lit(2)), Assign("y", Lit(5)), Skip()))
    st = ConcreteState({"x": 0, "y": 0}, {})
    results = run(ImplContext(), st, cmd, lin)
    assert len(results) == 1
    assert results[0][1].store == {"x": 1, "y": 5}


def test_function_call_rules(lin):
    prog = parse_program("func f(x) { skip; return x }")
    assert run_function(prog.functions, "f", (7,), {}, lin) == [(OK, 7, {})]
    assert run_function(prog.functions, "f", (7, 8), {}, lin) == [(ERR, "FuncArgsLength", {})]


def test_missing_function(lin):
    st = ConcreteState({"y": 0}, {})
    from polyheap.syntax import FunCall

    [(o, st2)] = run(ImplContext(), st, FunCall("y", "ghost", ()), lin)
    assert o is ERR and st2.store["err"] == "FuncMissing"


def test_locals_initialised_to_nil(lin):
    prog = parse_program("func f(x) { y := x; z := y; return z }")
    f = prog.functions["f"]
    assert set(f.locals()) == {"y", "z"}
    assert run_function(prog.functions, "f", (3,), {}, lin) == [(OK, 3, {})]


def test_callee_miss_propagates_payload(lin):
    prog = parse_program(
        """
        func inner() { w := lookup(1); return w }
        func outer() { r := inner(); return r }
        """
    )
    [(o, payload, mem)] = run_function(prog.functions, "outer", (), {}, lin)
    assert o is MISS and payload == ("MissingCell", 1)


def test_return_eval_error(lin):
    prog = parse_program("func f(x) { skip; return x + nil }")
    [(o, payload, _)] = run_function(prog.functions, "f", (1,), {}, lin)
    assert o is ERR and payload == "ExprEval"


def test_budget_exhaustion_is_not_an_outcome(lin):
    prog = parse_program(
        """
        func f(x) { y := f(x); return y }
        """
    )
    with pytest.raises(BudgetExhausted):
        run_function(prog.functions, "f", (1,), {}, lin, budget=8)


def test_fold_unfold_are_noops(lin):
    prog = parse_program(
        """
        pred p(+#a;) { cell(#a; 1) }
        func f(x) { fold p(x); unfold p(x); return x }
        """
    )
    assert run_function(prog.functions, "f", (2,), {}, lin) == [(OK, 2, {})]


def test_use_after_free(lin):
    prog = parse_program("func g() { free(1); y := lookup(1); return y }")
    [(o, payload, mem)] = run_function(prog.functions, "g", (), {1: 5}, lin)
    assert o is ERR and payload == ("UseAfterFree", 1)
    from polyheap.models.linear import FREED

    assert mem == {1: FREED}


def test_covers_reads_the_memory_and_the_final_store():
    st = ConcreteState({"x": 1, "y": 2}, {0: 1})
    assert st.covers(ConcreteState({"x": 1}, {0: 1}))
    assert st.covers(ConcreteState({}, {0: 1}))
    assert not st.covers(ConcreteState({"x": 2}, {0: 1}))
    assert not st.covers(ConcreteState({"z": NIL}, {0: 1}))
    assert not st.covers(ConcreteState({"x": 1}, {}))


def test_unreached_stops_at_the_first_list_that_reaches():
    """Each model's result lists are asked for one at a time and no further
    than the first that reaches the model with the outcome; the answer is
    the first model no list reaches, and the models after it are not read."""
    hit = ConcreteState({"x": 1}, {})
    lists = {
        "a": [[(OK, ConcreteState({"x": 0}, {}))], [(ERR, hit), (OK, hit)], [(OK, hit)]],
        "b": [[(ERR, hit)], [(MISS, hit)]],
        "c": [[(OK, hit)]],
    }
    yielded = []

    def runs_from(theta, final):
        for results in lists[theta]:
            yielded.append(theta)
            yield results

    def models():
        for theta in ("a", "b", "c"):
            yielded.append("model " + theta)
            yield theta, ConcreteState({"x": 1}, {})

    assert unreached(models(), runs_from, OK) == ("b", ConcreteState({"x": 1}, {}))
    assert yielded == ["model a", "a", "a", "model b", "b", "b"]
    yielded.clear()
    assert unreached([("a", hit), ("c", hit)], runs_from, OK) is None
    assert yielded == ["a", "a", "c"]
    assert unreached([], runs_from, OK) is None
