"""MiniSol sentences derived from docs/minisol-grammar.md, the one grammar the tests read.

`sentence(rng)` derives a random sentence within a depth budget, from a seeded
`random.Random` for goldens or from Hypothesis's `st.randoms()` so that a failure
shrinks.  `covering_set()` keeps the seeded sentences that each take an option no
earlier one took, until every alternative of every production has appeared and
every `[ ]` and `{ }` has been both taken and skipped, as in Purdom, "A sentence
generator for testing parsers", BIT 1972.
"""

from __future__ import annotations

import random
import re
from functools import cache
from math import inf
from pathlib import Path

from minisol_printer import escape_string

DOC = Path(__file__).parents[1] / "docs" / "minisol-grammar.md"
START = "source_unit"
# Names no keyword and no default rule pattern matches, so a rule shape can be planted among them.
NAMES = ("alpha", "beta", "gamma", "delta", "omega", "warden", "pool", "item", "idx", "cursor")
_STRING_CHARS = 'aZ0 "\\\n\t\x0b\x0c\x1c\x85\u2028\u2029\u00e9'

# (the doc's words for a rule its notation cannot state, the production it constrains, the
# rule as the generators keep it).  A rule in the notation replaces the production by a part
# of its language, in which the production's own name stands for the doc's production.
RULES = (
    ("(* must be ident/member/index *)", "assignable",
     'identifier | postfix "." identifier | postfix "[" expression "]"'),
    ('(* when followed by "(" *)', "cast_keyword", 'cast_keyword "(" [ expression { "," expression } ] ")"'),
    ("(* ending in a call: an event call *)", "call_expression",
     'postfix "(" [ expression { "," expression } ] ")"'),
    # the options of primary that take no selector, in parentheses or not: where a selector is
    # optional the generator skips it, and where one follows it derives the postfix again
    ("(* none after a literal but an address *)", "postfix", {"number", "hex", "string", "true", "false"}),
    ("(* a location only after a reference type *)", "location", {"uint256", "uint", "address", "bool"}),
    # the declaring productions, then the scope-opening ones: a declaring production's
    # identifier is new to the innermost scope, or to the one around the scope it opens
    ("A name is declared at most once per scope", "identifier",
     ({"contract", "state_var", "function", "param", "var_decl"},
      {"source_unit", "contract", "function", "block", "for_stmt"})),
    ("(* at most one visibility, one mutability and one returns clause *)", "function",
     {"visibility", "mutability", "returns_clause"}),
    ("is a `uint256` value", "number", 2**256),  # a hex literal's bound too
    # productions deep: each level of nesting the parser counts is at least one production
    ("Nesting is limited to 64 levels", START, 40),
)
_RULE = {production: rule for _, production, rule in RULES}


def _hex(rng: random.Random) -> str:
    digits = rng.choice((str.lower, str.upper))(f"{rng.randrange(_RULE['number']) >> rng.randrange(257):x}")
    return "0x" + "0" * (len(digits) == 40) + digits  # 40 digits are an address


# The token kinds of the doc's table that the productions name, each a generator of its text.
TERMINALS = {
    "identifier": None,  # a name from NAMES, drawn by _derive
    "number": lambda rng: str(rng.randrange(_RULE["number"]) >> rng.randrange(257)).zfill(rng.randrange(79)),
    "hex": _hex,
    "address_literal": lambda rng: "0x" + f"{rng.randrange(2**160):040x}",
    "string": lambda rng: escape_string("".join(rng.choices(_STRING_CHARS, k=rng.randrange(5)))),
}


class GrammarError(ValueError):
    """The doc's EBNF uses other notation, or leaves a name undefined or unreachable."""


# A node is (kind, value): ("tok", text), ("ref", name), ("seq", items), or a choice
# ("alt", options), ("opt", body) or ("rep", body), whose option 0 skips the body.
_NOTATION = re.compile(r'\(\*.*?\*\)|"[^"\s]+"|[a-z_]+|[=|;{}\[\]()]|(\S)', re.S)
_CLOSE = {"(": ")", "[": "]", "{": "}"}
_END = "end of block"


def _read(text: str, line: int = 1) -> dict:
    """name -> body of each production in text, whose first line is the doc's given line."""
    tokens = []
    for m in _NOTATION.finditer(text):
        at = line + text.count("\n", 0, m.start())
        if m[1]:
            raise GrammarError(f"line {at}: {m[0]!r} is not in the notation")
        if not m[0].startswith("(*"):
            tokens.append((m[0], at))
    tokens = [(_END, line + text.count("\n")), *reversed(tokens)]  # the next token last

    def take(expected: str | None = None) -> str:
        found, at = tokens.pop()
        if found != expected and (expected or not re.fullmatch(r'[a-z_]+|".*|[(\[{]', found)):
            raise GrammarError(f"line {at}: expected {expected or 'a term'}, found {found!r}")
        return found

    def alternation():
        options = [sequence()]
        while tokens[-1][0] == "|":
            take("|")
            options.append(sequence())
        return options[0] if len(options) == 1 else ("alt", tuple(options))

    def sequence():
        items = [term()]
        while tokens[-1][0] not in ("|", ")", "]", "}", ";", _END):
            items.append(term())
        return items[0] if len(items) == 1 else ("seq", tuple(items))

    def term():
        text = take()
        if text in _CLOSE:
            body = alternation()
            take(_CLOSE[text])
            return body if text == "(" else ("opt" if text == "[" else "rep", body)
        return ("tok", text[1:-1]) if text[0] == '"' else ("ref", text)

    productions = {}
    while tokens[-1][0] != _END:
        name, at = tokens[-1]
        if take() in productions or not re.fullmatch("[a-z_]+", name):
            raise GrammarError(f"line {at}: {name!r} is not a new production name")
        take("=")
        productions[name] = alternation()
        take(";")
    return productions


def parts(node):
    """node and every node inside it."""
    yield node
    kind, value = node
    for item in value if kind in ("seq", "alt") else (value,) if kind in ("opt", "rep") else ():
        yield from parts(item)


def read_grammar(doc: str) -> dict:
    """name -> body of each production in doc's ```ebnf block; see GrammarError."""
    block = re.search(r"^```ebnf\n(.*?)^```$", doc, re.M | re.S)
    if block is None:
        raise GrammarError("no ```ebnf block")
    productions = _read(block[1], doc.count("\n", 0, block.start(1)) + 1)
    refs = {name: {n for kind, n in parts(body) if kind == "ref"} for name, body in productions.items()}
    for name, names in refs.items():
        if undefined := names - productions.keys() - TERMINALS.keys():
            raise GrammarError(f"{name} uses undefined {', '.join(sorted(undefined))}")
    reached, todo = set(), [START]
    while todo:
        if (name := todo.pop()) in productions and name not in reached:
            reached.add(name)
            todo.extend(refs[name])
    if unreached := (productions.keys() | {START}) - reached:
        raise GrammarError(f"{START} cannot reach {', '.join(sorted(unreached))}")
    return productions


class Grammar:
    """The doc's productions, those RULES narrow, every option of every choice, and heights."""

    def __init__(self, doc: str):
        self.doc = read_grammar(doc)
        self.narrowed = {p: _read(f"{p} = {rule} ;")[p] for _, p, rule in RULES if isinstance(rule, str)}
        bodies = [(name, body) for table in (self.doc, self.narrowed) for name, body in table.items()]
        # (production, choice, option), as _derive records each option it takes
        self.options = {(name, id(node), i) for name, body in bodies for node in parts(body)
                        for i in range({"alt": len(node[1]), "opt": 2, "rep": 2}.get(node[0], 0))}
        self.heights: dict[int, float] = {}  # id(body) -> its height, found as a fixed point
        while self.heights != (new := {id(body): self.height(body, name) for name, body in bodies}):
            self.heights = new

    def body(self, name: str, prod: str):
        """What name derives inside production prod: its narrowing, except inside itself."""
        return self.narrowed[name] if name in self.narrowed and name != prod else self.doc[name]

    def height(self, node, prod: str) -> float:
        """The fewest productions deep a derivation of node inside prod goes."""
        kind, value = node
        if kind in ("seq", "alt"):
            return (max if kind == "seq" else min)(self.height(item, prod) for item in value)
        if kind == "ref" and value not in TERMINALS:
            return 1 + self.heights.get(id(self.body(value, prod)), inf)
        return 0


@cache
def grammar() -> Grammar:
    return Grammar(DOC.read_text(encoding="utf-8"))


def _first(node) -> set:
    """The texts and production names a derivation of node can start with."""
    kind, value = node
    if kind in ("seq", "alt"):
        return _first(value[0]) if kind == "seq" else set().union(*map(_first, value))
    return _first(value) if kind in ("opt", "rep") else {value}


def _derive(rng: random.Random, covered: set) -> str:
    """A random sentence, adding each option it takes to covered.  A choice takes each
    option that fits the depth budget alike, and an optional part (1 - depth / budget) ** 3
    of the time, a repetition's later turns a third as often."""
    g, budget, tokens, scopes, taken = grammar(), _RULE[START], [], [], []
    declaring, opening = _RULE["identifier"]
    used: set = set()  # the qualifiers the function being derived has
    literals: set = set()  # where a primary put a literal that takes no selector
    no_literal = False  # whether the next primary takes no literal: its postfix is derived again

    def closes(name: str, start: int) -> set:
        """What may not follow tokens[start:], which name derived: a selector after a
        literal, in parentheses or not, or a location after a value type."""
        derived, k = tokens[start:], (len(tokens) - start) // 2
        if name in ("primary", "postfix") and start + k in literals \
                and derived == ["("] * k + derived[k:k + 1] + [")"] * k:
            return {".", "(", "["}
        if name in ("type", "elementary_or_array") and len(derived) == 1 and derived[0] in _RULE["location"]:
            return {"location"}
        return set()

    def expand(node, prod: str, depth: int, closed: bool = False) -> set:
        """Derive node inside prod; closed skips an optional part after its one draw."""
        nonlocal no_literal
        kind, value = node
        if kind == "tok":
            tokens.append(value)
        elif kind == "seq":
            after: set = set()  # what may not follow the item before
            for item in value:
                while after & _first(item) and item[0] == "tok":  # the postfix before must take it
                    literals.difference_update(range(start, len(tokens)))
                    del tokens[start:], taken[mark:]
                    no_literal = True
                    after = expand(before, prod, depth)
                start, mark, before = len(tokens), len(taken), item
                after = expand(item, prod, depth, bool(after & _first(item)))
        elif kind == "alt":
            i = rng.choice([i for i, option in enumerate(value) if depth + g.height(option, prod) <= budget
                            and not (prod == "function" and option[0] == "ref" and option[1] in used)
                            and not (prod == "primary" and no_literal and option[1] in _RULE["postfix"])])
            if prod == "primary":
                no_literal = False
                if value[i][1] in _RULE["postfix"]:
                    literals.add(len(tokens))
            taken.append((prod, id(node), i))
            expand(value[i], prod, depth)
        elif kind in ("opt", "rep"):
            turns = 0  # random() is 0 where Hypothesis shrinks it, and 0 skips
            while (turns == 0 or kind == "rep") and depth + g.height(value, prod) <= budget \
                    and rng.random() >= 1 - (1 - depth / budget) ** 3 / (1 + 2 * turns) and not closed:
                turns += 1
                expand(value, prod, depth)
            taken.append((prod, id(node), min(turns, 1)))
        elif value == "identifier" and prod in declaring:
            scope = scopes[-2 if prod in opening else -1]
            scope.add(name := rng.choice([n for n in NAMES if n not in scope] or [f"{NAMES[0]}{len(scope)}"]))
            tokens.append(name)
        elif value in TERMINALS:
            tokens.append(rng.choice(NAMES) if value == "identifier" else TERMINALS[value](rng))
        else:
            if value == "function":
                used.clear()
            elif prod == "function" and value in _RULE["function"]:
                used.add(value)
            opens, start = value in opening, len(tokens)
            scopes.extend([set()] * opens)
            expand(g.body(value, prod), value, depth + 1)
            del scopes[len(scopes) - opens:]
            return closes(value, start)
        return set()

    expand(("ref", START), "", 0)
    covered.update(taken)
    return " ".join(tokens)


def sentence(rng: random.Random) -> str:
    """A random MiniSol sentence drawn with rng."""
    return _derive(rng, set())


@cache
def covering_set() -> tuple[tuple[str, ...], frozenset]:
    """The seeded sentences that each take an option no earlier one took, until every option
    of every choice is taken, and the options they take."""
    covered, sentences, options = set(), [], grammar().options
    for seed in range(1000):
        before = len(covered)
        text = _derive(random.Random(seed), covered)
        if len(covered) > before:
            sentences.append(text)
        if covered == options:
            return tuple(sentences), frozenset(covered)
    untaken = sorted({name for name, _, _ in options - covered})
    raise GrammarError(f"1000 sentences take no option of some choice in {', '.join(untaken)}")
