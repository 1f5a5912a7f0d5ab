"""Unit tests for the cat-language lexer, parser, and lowered evaluation."""

import pytest

from repro import ir
from repro.cat import (
    CatModel,
    CatNameError,
    CatSyntaxError,
    CatTypeError,
    parse,
    tokenize,
)
from repro.cat.ast import (
    Call,
    Check,
    Complement,
    Diff,
    Ident,
    Inter,
    Let,
    Optional,
    ReflTransClosure,
    Seq,
    SetToRel,
    TransClosure,
    Union,
)
from repro.events import ExecutionBuilder


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize('"m" let x = po | rf')
        kinds = [t.kind for t in tokens]
        assert kinds == [
            "STRING", "LET", "IDENT", "EQUALS", "IDENT", "PIPE", "IDENT", "EOF",
        ]

    def test_comments_nest(self):
        tokens = tokenize('"m" (* outer (* inner *) still out *) let')
        assert [t.kind for t in tokens] == ["STRING", "LET", "EOF"]

    def test_unterminated_comment(self):
        with pytest.raises(CatSyntaxError, match="comment"):
            tokenize('"m" (* oops')

    def test_unterminated_string(self):
        with pytest.raises(CatSyntaxError, match="string"):
            tokenize('"oops')

    def test_inverse_token(self):
        tokens = tokenize('"m" po^-1')
        assert "INVERSE" in [t.kind for t in tokens]

    def test_unexpected_character(self):
        with pytest.raises(CatSyntaxError):
            tokenize('"m" po @ rf')

    def test_positions_tracked(self):
        tokens = tokenize('"m"\nlet x = po')
        let = tokens[1]
        assert let.line == 2 and let.column == 1


class TestParser:
    def test_model_name(self):
        model = parse('"my model"')
        assert model.name == "my model"
        assert model.statements == ()

    def test_precedence_semi_tighter_than_amp(self):
        model = parse('"m" acyclic rmw & fre ; coe as A')
        check = model.statements[0]
        assert isinstance(check.expr, Inter)
        assert isinstance(check.expr.right, Seq)

    def test_precedence_amp_tighter_than_diff(self):
        model = parse('"m" acyclic a \\ b & c as A')
        check = model.statements[0]
        assert isinstance(check.expr, Diff)
        assert isinstance(check.expr.right, Inter)

    def test_precedence_diff_tighter_than_pipe(self):
        model = parse('"m" acyclic a | b \\ c as A')
        check = model.statements[0]
        assert isinstance(check.expr, Union)
        assert isinstance(check.expr.right, Diff)

    def test_postfix_operators(self):
        model = parse('"m" acyclic po+ | rf* | co? as A')
        expr = model.statements[0].expr
        assert isinstance(expr.left.left, TransClosure)
        assert isinstance(expr.left.right, ReflTransClosure)
        assert isinstance(expr.right, Optional)

    def test_complement_and_brackets(self):
        model = parse('"m" acyclic ~stxn ; [W] as A')
        expr = model.statements[0].expr
        assert isinstance(expr, Seq)
        assert isinstance(expr.left, Complement)
        assert isinstance(expr.right, SetToRel)

    def test_function_call(self):
        model = parse('"m" acyclic weaklift(com, stxn) as A')
        expr = model.statements[0].expr
        assert isinstance(expr, Call)
        assert expr.function == "weaklift"
        assert len(expr.arguments) == 2

    def test_let_rec_groups(self):
        model = parse('"m" let rec a = b and b = a')
        let = model.statements[0]
        assert isinstance(let, Let) and let.recursive
        assert [b.name for b in let.bindings] == ["a", "b"]

    def test_check_kinds(self):
        model = parse(
            '"m" acyclic po as A irreflexive rf as B empty co as C'
        )
        assert [s.kind for s in model.statements] == [
            "acyclic", "irreflexive", "empty",
        ]
        assert model.axiom_names() == ["A", "B", "C"]

    def test_missing_as_is_error(self):
        with pytest.raises(CatSyntaxError):
            parse('"m" acyclic po')

    def test_garbage_statement(self):
        with pytest.raises(CatSyntaxError, match="statement"):
            parse('"m" frobnicate')


class TestEvaluator:
    """Models run on the lowered path (``CatModel``, the IR executor);
    verdicts come from ``violated_axioms``, let-bound values from
    constraints or from ``ir.evaluate`` of the lowered terms."""

    def _execution(self):
        b = ExecutionBuilder()
        t0, t1 = b.thread(), b.thread()
        w = t0.write("x")
        r = t1.read("x")
        b.rf(w, r)
        return b.build(), (w, r)

    @staticmethod
    def _run(source: str, x) -> dict[str, bool]:
        """Axiom name → holds?, in declaration order."""
        model = CatModel(parse(source))
        violated = model.violated_axioms(x)
        return {c.name: c.name not in violated for c in model.plan().constraints}

    def _eval(self, source: str):
        x, _ = self._execution()
        return self._run(source, x)

    @staticmethod
    def _terms(source: str) -> dict[str, ir.Term]:
        """Check name → the lowered term it constrains."""
        return {c.name: c.term for c in CatModel(parse(source)).plan().constraints}

    def test_simple_check(self):
        assert self._eval('"m" acyclic po | com as Order') == {"Order": True}

    def test_failing_check(self):
        # rf ∪ rf⁻¹ has a 2-cycle.
        assert self._eval('"m" acyclic rf | rf^-1 as A') == {"A": False}

    def test_let_binding_used_by_check(self):
        results = self._eval('"m" let hb = po | rf acyclic hb as Order')
        assert results == {"Order": True}

    def test_let_rec_fixpoint(self):
        # rec r = r;r | rf  computes rf's transitive closure.
        results = self._eval(
            '"m" let rec r = (r ; r) | rf irreflexive r as Irr'
        )
        assert results == {"Irr": True}

    def test_let_rec_set_valued_binding(self):
        """A legal recursive *set* definition must be seeded from the
        empty set, not an empty relation (regression: it used to die
        with a spurious CatTypeError).  ``obs`` is the set of events
        reachable from the writes through rf: here {w, r}."""
        x, (w, r) = self._execution()
        results = self._run(
            '"m" let rec obs = W | range([obs] ; rf) '
            "empty [obs] & ~(rf | rf^-1 | [EV]) as ObsCovered",
            x,
        )
        assert results == {"ObsCovered": True}

    def test_let_rec_set_fixpoint_value(self):
        """The recursive set reaches the expected fixpoint."""
        x, (w, r) = self._execution()
        terms = self._terms(
            '"m" let rec obs = W | range([obs] ; rf) empty [obs] as Obs'
        )
        # domain([obs]) is obs itself.
        assert ir.evaluate(ir.domain(terms["Obs"]), x) == {w, r}

    def test_let_rec_mixed_kind_group(self):
        """A rec group mixing a set binding and a relation binding seeds
        each from its own kind."""
        x, (w, r) = self._execution()
        terms = self._terms(
            '"m" let rec obs = W | range([obs] ; step) '
            "and step = rf | ([obs] ; po) "
            "empty [obs] as Obs empty step as Step"
        )
        assert ir.evaluate(ir.domain(terms["Obs"]), x) == {w, r}
        obs, step = terms["Obs"].args[0], terms["Step"]
        assert (obs.kind, step.kind) == ("set", "rel")

    def test_set_operations(self):
        results = self._eval('"m" empty [R & W] as Disjoint')
        assert results == {"Disjoint": True}

    def test_cross_function(self):
        results = self._eval('"m" empty cross(W, R) & po as NoPoWR')
        assert results == {"NoPoWR": True}  # w and r are on other threads

    def test_domain_range(self):
        results = self._eval('"m" empty [domain(rf) & R] as WritesOnly')
        assert results == {"WritesOnly": True}

    def test_undefined_identifier(self):
        with pytest.raises(CatNameError):
            self._eval('"m" acyclic nonsense as A')

    def test_undefined_function(self):
        with pytest.raises(CatNameError):
            self._eval('"m" acyclic frob(po) as A')

    def test_type_error_compose_sets(self):
        with pytest.raises(CatTypeError):
            self._eval('"m" acyclic W ; R as A')

    def test_type_error_mixed_union(self):
        with pytest.raises(CatTypeError):
            self._eval('"m" acyclic W | po as A')

    def test_type_error_brackets_on_relation(self):
        with pytest.raises(CatTypeError):
            self._eval('"m" acyclic [po] as A')

    def test_zero_literal(self):
        assert self._eval('"m" empty 0 as E') == {"E": True}

    def test_complement(self):
        # ~0 is the full relation, which has cycles on >=1 events.
        assert self._eval('"m" acyclic ~0 as A') == {"A": False}
