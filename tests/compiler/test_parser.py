"""Parser tests."""

import pytest

from repro.compiler import ast_nodes as ast
from repro.compiler.parser import parse
from repro.errors import CompileError


class TestDeclarations:
    def test_global_scalar(self):
        unit = parse("int x;")
        assert unit.globals[0].name == "x"
        assert unit.globals[0].array_size is None

    def test_global_array_with_initializer(self):
        unit = parse("int a[4] = {1, 2, -3};")
        assert unit.globals[0].init == [1, 2, -3]

    def test_char_array_string_initializer(self):
        unit = parse('char s[8] = "hi";')
        assert unit.globals[0].init == [104, 105, 0]

    def test_string_too_long(self):
        with pytest.raises(CompileError):
            parse('char s[2] = "hi";')

    def test_char_scalar_rejected(self):
        with pytest.raises(CompileError):
            parse("char c;")

    def test_function_with_array_param(self):
        unit = parse("int f(int a[], int n) { return a[n]; }")
        fn = unit.functions[0]
        assert fn.params[0].type.is_array
        assert not fn.params[1].type.is_array

    def test_void_params(self):
        unit = parse("int f(void) { return 0; }")
        assert unit.functions[0].params == []

    def test_too_many_params(self):
        params = ", ".join(f"int p{i}" for i in range(9))
        with pytest.raises(CompileError):
            parse(f"int f({params}) {{ return 0; }}")


class TestStatements:
    def test_if_else_chain(self):
        unit = parse("int f(int x) { if (x) { return 1; } else { return 2; } }")
        stmt = unit.functions[0].body.body[0]
        assert isinstance(stmt, ast.If)
        assert stmt.otherwise is not None

    def test_for_with_declaration(self):
        unit = parse("void f() { for (int i = 0; i < 4; i = i + 1) { } }")
        stmt = unit.functions[0].body.body[0]
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.LocalDecl)

    def test_do_while(self):
        unit = parse("void f() { int i = 0; do { i = i + 1; } while (i < 3); }")
        assert isinstance(unit.functions[0].body.body[1], ast.DoWhile)

    def test_switch_with_default(self):
        unit = parse(
            """
            void f(int x) {
                switch (x) {
                    case 1: break;
                    case 2: break;
                    default: break;
                }
            }
            """
        )
        stmt = unit.functions[0].body.body[0]
        assert isinstance(stmt, ast.Switch)
        assert [c.value for c in stmt.cases] == [1, 2]
        assert stmt.default is not None

    def test_duplicate_case_rejected(self):
        with pytest.raises(CompileError):
            parse("void f(int x) { switch (x) { case 1: break; case 1: break; } }")

    def test_multi_declarator(self):
        unit = parse("void f() { int a = 1, b = 2; }")
        block = unit.functions[0].body.body[0]
        assert isinstance(block, ast.Block)
        assert len(block.body) == 2


class TestExpressions:
    def _expr(self, text):
        unit = parse(f"int f(int a, int b, int c) {{ return {text}; }}")
        stmt = unit.functions[0].body.body[0]
        assert isinstance(stmt, ast.Return)
        return stmt.value

    def test_precedence_mul_over_add(self):
        expr = self._expr("a + b * c")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_precedence_shift_below_compare(self):
        expr = self._expr("a << 2 < b")
        assert expr.op == "<"

    def test_parentheses(self):
        expr = self._expr("(a + b) * c")
        assert expr.op == "*"

    def test_ternary(self):
        assert isinstance(self._expr("a ? b : c"), ast.Conditional)

    @pytest.mark.parametrize(
        "text,grouped",
        [
            ("a - b - c", "(a - b) - c"),
            ("a / b * c % a", "((a / b) * c) % a"),
            ("a < b > c <= a >= b", "(((a < b) > c) <= a) >= b"),
            ("a || b || c && a && b", "(a || b) || ((c && a) && b)"),
            (
                "a * b + c << a < b == c & a ^ b | c && a || b",
                "((((((((((a * b) + c) << a) < b) == c) & a) ^ b) | c) && a) || b)",
            ),
            (
                "a | b ^ c & a == b < c << a + b * c",
                "a | (b ^ (c & (a == (b < (c << (a + (b * c)))))))",
            ),
            ("a != b >= c >> a - -b", "a != (b >= (c >> (a - (-b))))"),
            ("-a * !b && ~c", "((-a) * (!b)) && (~c)"),
            ("a ? b : c ? a : b", "a ? b : (c ? a : b)"),
            ("a ? b ? c : a : b || c", "a ? (b ? c : a) : (b || c)"),
            ("a = b += c - a", "a = (b += (c - a))"),
        ],
    )
    def test_binding_power_and_associativity(self, text, grouped):
        assert self._expr(text) == self._expr(grouped)

    def test_logical_short_circuit_nodes(self):
        expr = self._expr("a && b || c")
        assert isinstance(expr, ast.Logical) and expr.op == "||"

    def test_unary_chain(self):
        expr = self._expr("-~!a")
        assert isinstance(expr, ast.Unary) and expr.op == "-"

    def test_prefix_increment_desugars(self):
        unit = parse("void f() { int i = 0; ++i; }")
        stmt = unit.functions[0].body.body[1]
        assert isinstance(stmt.expr, ast.Assign)
        assert stmt.expr.op == "+"

    def test_compound_assignment(self):
        unit = parse("int g; void f() { g += 3; }")
        assign = unit.functions[0].body.body[0].expr
        assert assign.op == "+"

    def test_assignment_to_literal_rejected(self):
        with pytest.raises(CompileError):
            parse("void f() { 3 = 4; }")

    def test_array_index_requires_name(self):
        with pytest.raises(CompileError):
            parse("void f() { (1 + 2)[0]; }")

    def test_call_with_too_many_args(self):
        args = ", ".join(["1"] * 9)
        with pytest.raises(CompileError):
            parse(f"void f() {{ g({args}); }}")
