"""Text config parsing for the batch front-end.

Grammar (UTF-8, '#' comments, commas between pairs optional):

    datum { type="A2", ambient=2, k={alpha1=1, alpha2=3/2} }
    gamma { name="swap", matrix=[[0,1],[1,0]] }
    options { truncation=16, max_dim=1000000 }
    induce { p=["alpha1"], delta="steinberg", lambda_re=[0,0], extended=true }
    findim { kind="group" }
    catalog = "entries.cat"

Unknown keys are rejected; diagnostics carry line and column.  A gamma block
names a generator of Gamma; `weyl.GammaGroup` closes them, "e" is reserved.
`RunConfig.build_group` builds the checked presentation `weyl.HeckeDatum`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import GradedHeckeError

if TYPE_CHECKING:  # parsing needs no engine; building imports it on demand
    from .hecke import HeckeAlgebra
    from .rootdata import RootDatum
    from .weyl import HeckeDatum


class ConfigError(GradedHeckeError):
    pass


class Token(NamedTuple):
    kind: str  # ident, number, string, punct
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "{}[]=,":
            out.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ConfigError(f"line {line}, col {col}: unterminated string")
                j += 1
            if j >= n:
                raise ConfigError(f"line {line}, col {col}: unterminated string")
            out.append(Token("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "/"):
                j += 1
            out.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            out.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ConfigError(f"line {line}, col {col}: unexpected character {ch!r}")
    return out


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ConfigError(
                f"line {last.line}: unexpected end of input")
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ConfigError(
                f"line {t.line}, col {t.col}: expected {want!r}, got {t.text!r}")
        return t

    def parse_value(self) -> Any:
        t = self.next()
        if t.kind == "string":
            return t.text
        if t.kind == "number":
            return number(f"line {t.line}, col {t.col}: value", t.text)
        if t.kind == "ident" and t.text in ("true", "false"):
            return t.text == "true"
        if t.kind == "punct" and t.text == "{":
            return self.parse_pairs_until_brace()
        if t.kind == "punct" and t.text == "[":
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ConfigError(f"line {t.line}: unterminated list")
                if nxt.kind == "punct" and nxt.text == "]":
                    self.next()
                    return items
                items.append(self.parse_value())
                nxt = self.peek()
                if nxt is not None and nxt.kind == "punct" and nxt.text == ",":
                    self.next()
        raise ConfigError(
            f"line {t.line}, col {t.col}: unexpected token {t.text!r}")

    def parse_pairs_until_brace(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        while True:
            t = self.peek()
            if t is None:
                raise ConfigError("unterminated block")
            if t.kind == "punct" and t.text == "}":
                self.next()
                return out
            if t.kind == "punct" and t.text == ",":
                self.next()
                continue
            key = self.expect("ident")
            self.expect("punct", "=")
            if key.text in out:
                raise ConfigError(
                    f"line {key.line}: duplicate key {key.text!r}")
            out[key.text] = self.parse_value()


def parse_blocks(text: str) -> List[Tuple[str, Any]]:
    """Top-level blocks as (name, dict) or (name, value) pairs, in order."""
    parser = _Parser(_tokenize(text))
    out: List[Tuple[str, Any]] = []
    while parser.peek() is not None:
        name = parser.expect("ident")
        t = parser.peek()
        if t is not None and t.kind == "punct" and t.text == "{":
            parser.next()
            out.append((name.text, parser.parse_pairs_until_brace()))
        else:
            parser.expect("punct", "=")
            out.append((name.text, parser.parse_value()))
    return out


# ---------------------------------------------------------------------------
# RunConfig: validated configuration, buildable into library objects.
# ---------------------------------------------------------------------------

_DATUM_KEYS = {"type", "ambient", "k", "gram"}
_GAMMA_KEYS = {"name", "matrix"}
_OPTIONS_KEYS = {"truncation", "max_dim", "n_max"}
_INDUCE_TYPES = {"p": list, "delta": str, "lambda_re": list,
                 "lambda_im": list, "extended": bool}
_FINDIM_KEYS = {"kind", "size"}


class RunConfig:
    """A validated config, built by `load_config`."""

    __slots__ = ("datum_type", "ambient", "k_values", "gram", "gammas",
                 "truncation", "max_dim", "n_max", "catalog_path",
                 "induce_block", "findim_kind", "findim_size", "source_text")

    def __init__(self, datum_type: str, ambient: int,
                 k_values: Dict[str, Fraction],
                 gram: Optional[List[List[Fraction]]],
                 gammas: List[Tuple[str, List[List[Fraction]]]],
                 truncation: int = 16, max_dim: int = 10 ** 6, n_max: int = 2,
                 catalog_path: Optional[str] = None,
                 induce_block: Optional[Dict[str, Any]] = None,
                 findim_kind: str = "group", findim_size: int = 2,
                 source_text: str = ""):
        self.datum_type = datum_type
        self.ambient = ambient
        self.k_values = k_values
        self.gram = gram
        self.gammas = gammas
        self.truncation = truncation
        self.max_dim = max_dim
        self.n_max = n_max
        self.catalog_path = catalog_path
        self.induce_block = induce_block
        self.findim_kind = findim_kind
        self.findim_size = findim_size
        self.source_text = source_text

    def build_datum(self) -> RootDatum:
        from .rootdata import build_root_datum
        return build_root_datum(self.datum_type, self.ambient, self.gram)

    def build_k(self, datum: RootDatum) -> List[Fraction]:
        names = root_names(datum)
        if not self.k_values:
            return [Fraction(0)] * datum.rank
        if set(self.k_values) == {"all"}:
            return [self.k_values["all"]] * datum.rank
        unknown = set(self.k_values) - set(names)
        if unknown:
            raise ConfigError(
                f"unknown parameter keys {sorted(unknown)}; "
                f"expected {names}")
        missing = set(names) - set(self.k_values)
        if missing:
            raise ConfigError(f"missing parameter values for {sorted(missing)}")
        return [self.k_values[n] for n in names]

    def _presentation(self) -> tuple:
        from .weyl import make_diagram_automorphism
        datum = self.build_datum()
        k = self.build_k(datum)
        return datum, k, [make_diagram_automorphism(datum, *g)
                          for g in self.gammas]

    def build_group(self) -> HeckeDatum:
        """The checked presentation of H' that every command reads."""
        from .weyl import HeckeDatum
        return HeckeDatum(*self._presentation())

    def build_algebra(self) -> HeckeAlgebra:
        """H' itself, for callers that multiply in it."""
        from .hecke import HeckeAlgebra
        return HeckeAlgebra(*self._presentation())


def root_names(datum: RootDatum) -> List[str]:
    return [f"alpha{i + 1}" for i in range(datum.rank)]


def root_indices(datum: RootDatum, names: Sequence[str],
                 error: type = ConfigError) -> List[int]:
    """The sorted positions of the named simple roots (the key p of an
    induce block or a catalog entry); a value that is not a list, or an
    unknown or repeated name, raises `error`."""
    if not isinstance(names, list):
        raise error(f"p must be a list of simple root names, got {names!r}")
    valid = root_names(datum)
    for n in names:
        if n not in valid:
            raise error(f"unknown simple root {n!r}; expected {valid}")
        if names.count(n) > 1:
            raise error(f"simple root {n!r} is named twice")
    return sorted(map(valid.index, names))


def number(what: str, value) -> Fraction:
    """Outside input (config value or flag) as an exact rational; every
    numeric conversion of such input goes through here."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def integer(what: str, value, least: int = 0) -> int:
    q = number(what, value)
    if q.denominator != 1 or q < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {q}")
    return int(q)


def matrix(what: str, value) -> List[List[Fraction]]:
    if not isinstance(value, list) or not all(isinstance(r, list)
                                              for r in value):
        raise ConfigError(f"{what} must be a list of rows")
    return [[number(f"{what} entry", x) for x in row] for row in value]


def _reject_unknown(block: str, payload: Dict[str, Any], keys) -> None:
    unknown = set(payload) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {block} keys {sorted(unknown)}")


def load_config(text: str) -> RunConfig:
    blocks = parse_blocks(text)
    datum_block = None
    cfg_kwargs: Dict[str, Any] = {}
    gammas = []
    for name, payload in blocks:
        if name == "datum":
            if datum_block is not None:
                raise ConfigError("duplicate datum block")
            _reject_unknown("datum", payload, _DATUM_KEYS)
            datum_block = payload
        elif name == "gamma":
            _reject_unknown("gamma", payload, _GAMMA_KEYS)
            if "name" not in payload or "matrix" not in payload:
                raise ConfigError("gamma block needs name and matrix")
            if not isinstance(payload["name"], str):
                raise ConfigError("gamma name must be a string")
            gammas.append((payload["name"],
                           matrix("gamma matrix", payload["matrix"])))
        elif name == "options":
            _reject_unknown("options", payload, _OPTIONS_KEYS)
            for key in sorted(_OPTIONS_KEYS & set(payload)):
                cfg_kwargs[key] = integer(f"option {key}", payload[key])
        elif name == "induce":
            _reject_unknown("induce", payload, _INDUCE_TYPES)
            for key in sorted(payload):
                if not isinstance(payload[key], _INDUCE_TYPES[key]):
                    raise ConfigError(f"induce {key} must be a "
                                      f"{_INDUCE_TYPES[key].__name__}")
            cfg_kwargs["induce_block"] = payload
        elif name == "findim":
            _reject_unknown("findim", payload, _FINDIM_KEYS)
            if "kind" in payload:
                kind = payload["kind"]
                if kind not in ("group", "matrix", "ground"):
                    raise ConfigError(f"unknown findim kind {kind!r}")
                cfg_kwargs["findim_kind"] = kind
            if "size" in payload:
                cfg_kwargs["findim_size"] = integer("findim size",
                                                    payload["size"], 1)
        elif name == "catalog":
            if not isinstance(payload, str):
                raise ConfigError("catalog must be a path string")
            cfg_kwargs["catalog_path"] = payload
        else:
            raise ConfigError(f"unknown top-level block {name!r}")
    if datum_block is None:
        raise ConfigError("config needs a datum block")
    if "type" not in datum_block or "ambient" not in datum_block:
        raise ConfigError("datum block needs type and ambient")
    kvals: Dict[str, Fraction] = {}
    kraw = datum_block.get("k", {})
    if isinstance(kraw, Fraction):
        kvals = {"all": kraw}
    elif isinstance(kraw, dict):
        kvals = {key: number(f"k value {key}", v) for key, v in kraw.items()}
    else:
        raise ConfigError("datum k must be a number or a map")
    gram = None
    if "gram" in datum_block:
        gram = matrix("datum gram", datum_block["gram"])
    return RunConfig(datum_type=str(datum_block["type"]),
                     ambient=integer("datum ambient", datum_block["ambient"]),
                     k_values=kvals, gram=gram, gammas=gammas,
                     source_text=text, **cfg_kwargs)


def apply_k_override(cfg: RunConfig, override: str) -> None:
    """--k-override 'alpha1=2,alpha2=2' or a single value for all roots."""
    override = override.strip()
    if "=" not in override:
        cfg.k_values = {"all": number("k override", override)}
        return
    out: Dict[str, Fraction] = {}
    for chunk in override.split(","):
        if "=" not in chunk:
            raise ConfigError(f"bad k override chunk {chunk!r}")
        name, val = chunk.split("=", 1)
        if (name := name.strip()) in out:
            raise ConfigError(f"k override names {name!r} twice")
        out[name] = number(f"k override {name}", val)
    cfg.k_values = out
