"""Dependency-parsed corpora: CoNLL-style parsing and tree paths between terms.

Corpus files are UTF-8 text with one token per line and blank lines between
sentences. Each token line carries at least eight tab-separated columns
(ID, FORM, LEMMA, UPOS, _, _, HEAD, DEPREL, ...). Columns 1, 3, 4, 7 and 8
are read; FORM and any extra columns are not. Lines starting with '#' are
comments. HEAD 0 marks the sentence root.

A path between two terms walks the undirected dependency tree from the x
occurrence to the y occurrence. Every node on the walk contributes one step
(lemma, POS, dependency label, traversal direction); the endpoints carry the
placeholders X and Y instead of their surface lemmas. The direction is "up"
while the walk climbs toward heads, "down" while it descends, and "root" at
the single apex node where it turns around. The number of tree edges on the
walk (one less than the number of steps) is what ``max_edges`` bounds.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import quote, unquote

from ._io import data_lines, excerpt, int_error, open_lines, write_pieces
from .errors import ParseError

UP = "up"
DOWN = "down"
ROOT = "root"

X_PLACEHOLDER = "X"
Y_PLACEHOLDER = "Y"

DEFAULT_MAX_EDGES = 4

_DIR_TO_SYMBOL = {UP: "<", DOWN: ">", ROOT: "^"}
_SYMBOL_TO_DIR = {s: d for d, s in _DIR_TO_SYMBOL.items()}
_STEP_SEP = "::"

INDEX_HEADER = "# semrel path index v1"


@dataclass(frozen=True)
class SentenceGraph:
    """One parsed sentence as columns indexed by token ID; index 0 is the root.

    ``heads[i]`` is token i's head (0 for the sentence root), ``lemmas[i]``
    its lowercased lemma, ``pos[i]`` and ``deprels[i]`` its POS tag and
    dependency label; the root sentinel holds 0 and empty strings.
    ``positions`` maps each lemma to the IDs of its tokens, in order.
    """

    lemmas: tuple[str, ...]
    pos: tuple[str, ...]
    deprels: tuple[str, ...]
    heads: tuple[int, ...]
    positions: dict[str, list[int]]


class PathEdge(NamedTuple):
    """One step of a dependency path; its fields are the step's components,
    in the order that a step input and a model file hold them.

    ``lemma`` is the node's lowercased lemma, or the X/Y placeholder at the
    endpoints; ``deprel`` is the node's own label toward its head; ``direction``
    is one of "up", "down", "root".
    """

    lemma: str
    pos: str
    deprel: str
    direction: str


@dataclass(frozen=True)
class DependencyPath:
    """Steps from the X endpoint to the Y endpoint, one per node on the walk."""

    edges: tuple[PathEdge, ...]

    @cached_property  # computed once, as path_to_text writes it
    def text(self) -> str:
        return path_to_text(self)


def iter_conll(stream) -> Iterator[SentenceGraph]:
    """Yield the sentence graphs of blank-line-separated CoNLL-style blocks.

    Accepts a string, an open file, or any iterable of lines, and reads it
    one block at a time, so only the current sentence is held in memory. A
    string splits into lines where ``open()`` would split it, at "\n", "\r\n"
    and "\r" only; no line ending reaches a column.
    Raises ParseError, naming the offending line, for short rows, non-numeric
    ID or HEAD fields, or head links that do not form a single-rooted tree;
    the sentences before the bad one have been yielded by then.
    """
    lines = io.StringIO(stream, newline=None) if isinstance(stream, str) else stream
    block: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if line.startswith("#"):
            continue
        if not line.strip():
            if block:
                yield _build_sentence(block)
                block = []
            continue
        cols = line.split("\t")
        if len(cols) < 8:
            raise ParseError(
                f"expected at least 8 tab-separated columns, found {len(cols)} at line {line_no}"
            )
        block.append((line_no, cols))
    if block:
        yield _build_sentence(block)


def parse_conll(stream) -> list[SentenceGraph]:
    """All sentence graphs of a corpus, as a list; see ``iter_conll``."""
    return list(iter_conll(stream))


def _build_sentence(block: list[tuple[int, list[str]]]) -> SentenceGraph:
    # Entry i of each list belongs to the token with ID i; entry 0 is the root sentinel.
    line_of, heads, lemmas, pos, deprels = [0], [0], [""], [""], [""]
    positions: dict[str, list[int]] = {}
    for position, (line_no, cols) in enumerate(block, start=1):
        try:
            idx = int(cols[0])
        except ValueError:
            raise int_error(cols[0], "ID", line_no) from None
        if idx != position:
            raise ParseError(f"token IDs must run 1..n, found {excerpt(str(idx))} at line {line_no}")
        try:
            heads.append(int(cols[6]))
        except ValueError:
            raise int_error(cols[6], "HEAD", line_no) from None
        line_of.append(line_no)
        lemmas.append(cols[2].lower())
        positions.setdefault(lemmas[idx], []).append(idx)
        pos.append(cols[3])
        deprels.append(cols[7])

    n = len(block)
    for idx in range(1, n + 1):
        if heads[idx] == idx:
            raise ParseError(f"self-loop at line {line_of[idx]}")
        if not 0 <= heads[idx] <= n:
            raise ParseError(
                f"HEAD {excerpt(str(heads[idx]))} out of range 0..{n} at line {line_of[idx]}")
    roots = [idx for idx in range(1, n + 1) if heads[idx] == 0]
    if not roots:
        raise ParseError(f"no root token in sentence ending at line {line_of[n]}")
    if len(roots) > 1:
        raise ParseError(f"multiple root tokens at line {line_of[roots[1]]}")

    # Every token must reach the artificial root; anything else is a cycle.
    state = [2] + [0] * n  # 0 unvisited, 1 on the current walk, 2 reaches the root
    for start in range(1, n + 1):
        node, walk = start, []
        while state[node] == 0:
            state[node] = 1
            walk.append(node)
            node = heads[node]
        if state[node] == 1:
            raise ParseError(f"cyclic head links at line {line_of[node]}")
        for visited in walk:
            state[visited] = 2
    return SentenceGraph(tuple(lemmas), tuple(pos), tuple(deprels), tuple(heads), positions)


def extract_paths(
    sentence: SentenceGraph, x_lemma: str, y_lemma: str, max_edges: int = DEFAULT_MAX_EDGES
) -> Counter:
    """Paths between every x occurrence and every y occurrence, as a multiset.

    Only walks of at most ``max_edges`` tree edges are kept. Lemma matching is
    case-insensitive; occurrences at the same position are skipped.
    """
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    found: Counter = Counter()
    ys = sentence.positions.get(y_lemma.lower(), ())
    for xi in sentence.positions.get(x_lemma.lower(), ()):
        for yi in ys:
            if xi == yi:
                continue
            nodes, apex = _tree_path(sentence.heads, xi, yi)
            if len(nodes) - 1 > max_edges:
                continue
            found[_path_from_nodes(sentence, nodes, apex)] += 1
    return found


def _tree_path(heads: tuple[int, ...], a: int, b: int) -> tuple[list[int], int]:
    """Nodes on the unique tree walk from a to b, inclusive, and the position
    of its apex, the node nearest the root."""
    chain_a = []
    node = a
    while node != 0:
        chain_a.append(node)
        node = heads[node]
    depth_a = {n: i for i, n in enumerate(chain_a)}
    chain_b = []
    node = b
    while node not in depth_a:
        chain_b.append(node)
        node = heads[node]
    apex = depth_a[node]
    return chain_a[: apex + 1] + list(reversed(chain_b)), apex


def _path_from_nodes(sentence: SentenceGraph, nodes: list[int], apex: int) -> DependencyPath:
    """The walk's steps: "up" before the apex, "root" at it, "down" after it."""
    last = len(nodes) - 1
    steps = []
    for i, node in enumerate(nodes):
        lemma = X_PLACEHOLDER if i == 0 else Y_PLACEHOLDER if i == last else sentence.lemmas[node]
        direction = UP if i < apex else ROOT if i == apex else DOWN
        steps.append(PathEdge(lemma, sentence.pos[node], sentence.deprels[node], direction))
    return DependencyPath(tuple(steps))


class PathIndex:
    """Dependency-path multisets keyed by ordered (x, y) lemma pairs.

    Keys are lowercased on every access; a pair that never co-occurred maps to
    an empty multiset. Immutable once built, apart from ``add``.
    """

    def __init__(self):
        self._pairs: dict[tuple[str, str], Counter] = {}

    @staticmethod
    def _key(x: str, y: str) -> tuple[str, str]:
        return (x.lower(), y.lower())

    def add(self, x: str, y: str, path: DependencyPath, count: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be positive")
        self._pairs.setdefault(self._key(x, y), Counter())[path] += count

    def get(self, x: str, y: str) -> Counter:
        """A copy of the pair's path multiset, in ``text`` order; empty when absent."""
        paths = self._pairs.get(self._key(x, y), {})
        return Counter({path: paths[path] for path in sorted(paths, key=lambda path: path.text)})

    def pair_keys(self) -> list[tuple[str, str]]:
        return sorted(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathIndex):
            return NotImplemented
        return self._pairs == other._pairs


def build_path_index(
    corpus: Iterable[SentenceGraph], pairs: Iterable[tuple[str, str]], max_edges: int = DEFAULT_MAX_EDGES
) -> PathIndex:
    """Extract and pool paths for every given pair over the whole corpus.

    The corpus is read once, in one pass, so it may be a stream such as
    ``iter_conll``. Each sentence visits only the pairs whose two lemmas it
    holds: its lemmas are looked up among the pairs' x lemmas, and each hit's
    y lemmas among its lemmas.
    """
    if max_edges < 1:  # before the corpus is read, whether or not a pair occurs
        raise ValueError("max_edges must be at least 1")
    ys_of: dict[str, set[str]] = {}
    for x, y in pairs:
        ys_of.setdefault(x.lower(), set()).add(y.lower())
    index = PathIndex()
    for sentence in corpus:
        present = sentence.positions.keys()
        for x in present & ys_of.keys():
            for y in present & ys_of[x]:
                for path, count in extract_paths(sentence, x, y, max_edges).items():
                    index.add(x, y, path, count)
    return index


def path_to_text(path: DependencyPath) -> str:
    """Serialize a path as ``lemma/pos/deprel/dir`` steps joined by "::".

    Direction symbols are "<" (up), ">" (down), and "^" (root). Field text is
    percent-encoded so the round trip through ``path_from_text`` is exact.
    """
    steps = []
    for edge in path.edges:
        steps.append(
            "/".join(
                (
                    _quote(edge.lemma),
                    _quote(edge.pos),
                    _quote(edge.deprel),
                    _DIR_TO_SYMBOL[edge.direction],
                )
            )
        )
    return _STEP_SEP.join(steps)


def path_from_text(text: str) -> DependencyPath:
    """Inverse of ``path_to_text``."""
    if not text:
        raise ParseError("empty path text")
    edges = []
    for step in text.split(_STEP_SEP):
        fields = step.split("/")
        if len(fields) != 4:
            raise ParseError(f"malformed path step {excerpt(step)!r}")
        direction = _SYMBOL_TO_DIR.get(fields[3])
        if direction is None:
            raise ParseError(f"unknown direction symbol {excerpt(fields[3])!r} in step {excerpt(step)!r}")
        edges.append(PathEdge(unquote(fields[0]), unquote(fields[1]), unquote(fields[2]), direction))
    return DependencyPath(tuple(edges))


@cache  # lemmas, tags and labels repeat across paths
def _quote(field: str) -> str:
    return quote(field, safe="")


def save_index(index: PathIndex, destination) -> None:
    """Write an index as ``x<TAB>y<TAB>path<TAB>count`` lines."""
    rows = (f"{x}\t{y}\t{path.text}\t{count}\n" for x, y in index.pair_keys()
            for path, count in index.get(x, y).items())
    write_pieces(destination, chain([INDEX_HEADER + "\n"], rows))


def load_index(source) -> PathIndex:
    """Read an index written by ``save_index``; line 1 must be its header."""
    index = PathIndex()
    with open_lines(source) as lines:
        lines = iter(lines)
        if next(lines, "").rstrip("\r\n") != INDEX_HEADER:
            raise ParseError(f"expected the header {INDEX_HEADER!r} at line 1")
        for line_no, cols in data_lines(lines, start=2):
            if len(cols) != 4:
                raise ParseError(f"expected 4 columns at line {line_no}")
            if not cols[0] or not cols[1]:
                raise ParseError(f"empty term at line {line_no}")
            try:
                count = int(cols[3])
            except ValueError:
                raise int_error(cols[3], "count", line_no) from None
            if count < 1:
                raise ParseError(f"count must be positive at line {line_no}")
            try:
                path = path_from_text(cols[2])
            except ParseError as exc:
                raise ParseError(f"{exc} at line {line_no}") from None
            index.add(cols[0], cols[1], path, count)
    return index
