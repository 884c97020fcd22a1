"""Parser for the declarative document format of the command-line front end.

Line-oriented: one declaration or command per line, '#' comments, blank lines
ignored.  Parsing resolves names against earlier declarations and yields a
Document; polynomial bodies are kept as location-carrying expression trees
and materialized against a concrete ring later.
"""

import re

COMMAND_KINDS = ("descend", "restrict", "fixed", "amitsur", "validate")


class Diagnostic:
    __slots__ = ("severity", "line", "col", "message", "code")

    def __init__(self, severity, line, col, message, code):
        self.severity = severity
        self.line = line
        self.col = col
        self.message = message
        self.code = code

    def render(self):
        return f"{self.severity}[{self.code}] line {self.line}, col {self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def _fail(line, col, message, code="syntax"):
    raise ParseError(Diagnostic("error", line, col, message, code))


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|=>|[=+\-*/^(){}\[\],:.<>])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.value}"


def tokenize(text, line_no):
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            _fail(line_no, pos + 1, f"unexpected character {text[pos]!r}")
        kind, value = match.lastgroup, match.group()
        if kind == "int":
            value = int(value)
        elif kind == "op":
            kind = value
        if kind != "ws":
            out.append(Token(kind, value, line_no, pos + 1))
        pos = match.end()
    return out


class TokenStream:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            _fail(self.line, self._end_col(), "unexpected end of statement")
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            _fail(tok.line, tok.col, f"expected {want!r}, found {tok.value!r}")
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok is not None and tok.kind == kind and (value is None or tok.value == value):
            self.pos += 1
            return tok
        return None

    def require_end(self):
        tok = self.peek()
        if tok is not None:
            _fail(tok.line, tok.col, f"unexpected trailing {tok.value!r}")

    def _end_col(self):
        if self.tokens:
            return self.tokens[-1].col + len(str(self.tokens[-1].value))
        return 1


# -- expression trees ---------------------------------------------------------

def parse_expression(stream):
    return _parse_sum(stream)


def _parse_sum(stream):
    node = _parse_product(stream)
    while True:
        if stream.accept("+"):
            node = ("add", node, _parse_product(stream))
        elif stream.accept("-"):
            node = ("sub", node, _parse_product(stream))
        else:
            return node


def _parse_product(stream):
    node = _parse_unary(stream)
    while stream.accept("*"):
        node = ("mul", node, _parse_unary(stream))
    return node


def _parse_unary(stream):
    if stream.accept("-"):
        return ("neg", _parse_unary(stream))
    return _parse_power(stream)


def _parse_power(stream):
    node = _parse_atom(stream)
    if stream.accept("^"):
        tok = stream.expect("int")
        return ("pow", node, tok.value)
    return node


def _parse_atom(stream):
    tok = stream.next()
    if tok.kind == "int":
        if stream.accept("/"):
            den = stream.expect("int")
            if den.value == 0:
                _fail(den.line, den.col, "zero denominator")
            return ("frac", tok.value, den.value)
        return ("int", tok.value)
    if tok.kind == "name":
        return ("sym", tok.value, tok.line, tok.col)
    if tok.kind == "(":
        node = parse_expression(stream)
        stream.expect(")")
        return node
    _fail(tok.line, tok.col, f"expected a polynomial term, found {tok.value!r}")


# -- statements ----------------------------------------------------------------

class Statement:
    __slots__ = ("kind", "name", "line", "col", "payload")

    def __init__(self, kind, name, line, col, payload):
        self.kind = kind
        self.name = name
        self.line = line
        self.col = col
        self.payload = payload


class Document:
    __slots__ = ("declarations", "command")

    def __init__(self, declarations, command):
        self.declarations = declarations
        self.command = command


def _comma_list(stream, opening, read_item, closing):
    """One or more items separated by commas, between ``opening`` (None
    when the caller has read it) and ``closing``."""
    if opening is not None:
        stream.expect(opening)
    items = [read_item(stream)]
    while stream.accept(","):
        items.append(read_item(stream))
    stream.expect(closing)
    return items


def _refuse_repeat(tok, seen, what):
    if tok.value in seen:
        _fail(tok.line, tok.col, f"{tok.value!r} already has {what}", "unresolved")
    seen.add(tok.value)


def _parse_setting(stream, key, value=None):
    """``key=``, and then ``value`` when one is given."""
    shown = f"{key}={value or ''}"
    tok = stream.expect("name")
    if tok.value != key:
        _fail(tok.line, tok.col, f"expected {shown!r}")
    stream.expect("=")
    if value is not None:
        tok = stream.expect("name")
        if tok.value != value:
            _fail(tok.line, tok.col, f"only {shown!r} is supported")


def _parse_field(stream, names):
    stream.expect("=")
    tok = stream.next()
    if tok.kind != "name":
        _fail(tok.line, tok.col, "expected a field constructor")
    if tok.value == "QQ":
        return {"ctor": "QQ"}
    if tok.value == "GF":
        stream.expect("(")
        p = stream.expect("int").value
        n = 1
        if stream.accept("^"):
            n = stream.expect("int").value
        modulus = None
        if stream.accept(","):
            _parse_setting(stream, "modulus")
            modulus = parse_expression(stream)
        stream.expect(")")
        return {"ctor": "GF", "p": p, "n": n, "modulus": modulus}
    if tok.value == "Cyclo":
        stream.expect("(")
        m = stream.expect("int").value
        stream.expect(")")
        return {"ctor": "Cyclo", "m": m}
    if tok.value == "Ext":
        stream.expect("(")
        base = stream.expect("name")
        if base.value != "QQ":
            _fail(base.line, base.col, "Ext base must be QQ")
        stream.expect(",")
        _parse_setting(stream, "modulus")
        modulus = parse_expression(stream)
        irreducible = stream.accept(",") is not None
        if irreducible:
            _parse_setting(stream, "irreducible", "assert")
        stream.expect(")")
        return {"ctor": "Ext", "modulus": modulus, "irreducible": irreducible}
    _fail(tok.line, tok.col, f"unknown field constructor {tok.value!r}")


def _parse_automorphism(stream):
    gen = stream.expect("name")
    if gen.value != "t":
        _fail(gen.line, gen.col, "automorphisms are written 't -> <poly>'")
    stream.expect("->")
    return parse_expression(stream)


def _parse_group(stream, names):
    stream.expect("=")
    tok = stream.peek()
    if tok is None:
        _fail(stream.line, 1, "missing group body")
    if tok.kind == "name" and tok.value == "Aut":
        stream.next()
        stream.expect("(")
        ext = _reference(stream, names, "field")
        stream.expect("/")
        base = _reference(stream, names, "field")
        stream.expect(")")
        return {"ctor": "Aut", "ext": ext, "base": base}
    ext = _reference(stream, names, "field")
    images = _comma_list(stream, "[", _parse_automorphism, "]")
    return {"ctor": "explicit", "ext": ext, "images": images}


def _reference(stream, names, expected_kind):
    tok = stream.expect("name")
    kind = names.get(tok.value)
    if kind is None:
        _fail(tok.line, tok.col, f"undeclared name {tok.value!r}", "unresolved")
    if kind != expected_kind:
        _fail(tok.line, tok.col,
              f"{tok.value!r} is {_WITH_ARTICLE[kind]}, expected "
              f"{_WITH_ARTICLE[expected_kind]}", "unresolved")
    return tok.value


def _parse_algebra(stream, names):
    stream.expect("=")
    field = _reference(stream, names, "field")
    variables = _comma_list(stream, "[", lambda s: s.expect("name").value, "]")
    relations = []
    if stream.accept("/"):
        stream.expect("(")
        if not stream.accept(")"):
            relations = _comma_list(stream, None, parse_expression, ")")
    if len(set(variables)) != len(variables):
        _fail(stream.line, 1, "duplicate variable names")
    return {"field": field, "variables": tuple(variables), "relations": relations}


def _labelled_blocks(stream, kind, shape, read_body):
    """The ``: <label> => <body>`` blocks of a datum or module, at most one
    per label."""
    blocks = []
    labels = set()
    while stream.accept(":"):
        label = stream.expect("name")
        _refuse_repeat(label, labels, "a block")
        stream.expect("=>")
        blocks.append({"label": label.value, "line": label.line,
                       "col": label.col, "body": read_body(stream)})
    if not blocks:
        _fail(stream.line, 1, f"{kind} needs at least one ': <label> => {shape}' block")
    return blocks


def _parse_images(stream):
    """``{ x -> <poly>, ... }``, at most one image per variable."""
    seen = set()

    def image(stream):
        var = stream.expect("name")
        _refuse_repeat(var, seen, "an image")
        stream.expect("->")
        return var.value, var.line, var.col, parse_expression(stream)

    return _comma_list(stream, "{", image, "}")


def _parse_datum(stream, names):
    stream.expect("name", "on")
    algebra = _reference(stream, names, "algebra")
    return {"algebra": algebra,
            "blocks": _labelled_blocks(stream, "datum", "{...}", _parse_images)}


def _parse_matrix(stream):
    rows = _comma_list(stream, "[",
                       lambda s: _comma_list(s, "[", parse_expression, "]"), "]")
    if any(len(r) != len(rows[0]) for r in rows):
        _fail(stream.line, 1, "ragged matrix literal")
    return rows


def _parse_module(stream, names):
    stream.expect("name", "on")
    group = _reference(stream, names, "group")
    stream.expect("name", "dim")
    dim = stream.expect("int").value
    return {"group": group, "dim": dim,
            "blocks": _labelled_blocks(stream, "module", "[[...]]", _parse_matrix)}


def _parse_map(stream, names):
    stream.expect("=")
    source = _reference(stream, names, "field")
    stream.expect("->")
    factors = [_reference(stream, names, "field")]
    while stream.accept("name", "x"):
        factors.append(_reference(stream, names, "field"))
    return {"source": source, "factors": factors}


_DECLARATIONS = {
    "field": _parse_field,
    "group": _parse_group,
    "algebra": _parse_algebra,
    "datum": _parse_datum,
    "module": _parse_module,
    "map": _parse_map,
}
DECL_KINDS = tuple(_DECLARATIONS)
_WITH_ARTICLE = {k: ("an " if k[0] == "a" else "a ") + k for k in DECL_KINDS}


def _parse_command(stream, names, head):
    if head.value == "descend":
        return Statement("descend", _reference(stream, names, "datum"),
                         head.line, head.col, {})
    if head.value == "restrict":
        algebra = _reference(stream, names, "algebra")
        stream.expect("name", "over")
        upper = _reference(stream, names, "field")
        stream.expect("name", "to")
        lower = _reference(stream, names, "field")
        return Statement("restrict", algebra, head.line, head.col,
                         {"over": upper, "to": lower})
    if head.value == "fixed":
        return Statement("fixed", _reference(stream, names, "module"),
                         head.line, head.col, {})
    if head.value == "amitsur":
        name = _reference(stream, names, "map")
        stream.expect("name", "rmax")
        stream.expect("=")
        rmax = stream.expect("int").value
        return Statement("amitsur", name, head.line, head.col, {"rmax": rmax})
    tok = stream.expect("name")
    kind = names.get(tok.value)
    if kind is None:
        _fail(tok.line, tok.col, f"undeclared name {tok.value!r}", "unresolved")
    return Statement("validate", tok.value, head.line, head.col, {"kind": kind})


def parse(text):
    """Parse a document: declarations in order plus exactly one command."""
    declarations = []
    command = None
    names = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        tokens = tokenize(body, line_no)
        stream = TokenStream(tokens, line_no)
        head = stream.expect("name")
        if head.value in DECL_KINDS:
            if command is not None:
                _fail(head.line, head.col, "declarations must precede the command")
            name_tok = stream.expect("name")
            if name_tok.value in names:
                _fail(name_tok.line, name_tok.col,
                      f"duplicate name {name_tok.value!r}", "unresolved")
            payload = _DECLARATIONS[head.value](stream, names)
            stream.require_end()
            declarations.append(Statement(head.value, name_tok.value,
                                          head.line, head.col, payload))
            names[name_tok.value] = head.value
        elif head.value in COMMAND_KINDS:
            if command is not None:
                _fail(head.line, head.col, "only one command per document")
            command = _parse_command(stream, names, head)
            stream.require_end()
        else:
            _fail(head.line, head.col,
                  f"unknown statement {head.value!r} (declarations: "
                  f"{', '.join(DECL_KINDS)}; commands: {', '.join(COMMAND_KINDS)})")
    if command is None:
        _fail(len(text.splitlines()) or 1, 1, "document has no command")
    return Document(declarations, command)
