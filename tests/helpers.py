"""Shared builders for the test suite."""

import numpy as np

from semrel.corpus import parse_conll
from semrel.embeddings import EmbeddingTable
from semrel.path_encoder import ComponentEmbeddings, PathEncoder, RowGradient
from semrel.relation_model import ModelParams, trainable_arrays

# "The black cat chased a gray mouse."
CAT_CONLL = """\
1\tThe\tthe\tDET\t_\t_\t3\tdet
2\tblack\tblack\tADJ\t_\t_\t3\tamod
3\tcat\tcat\tNOUN\t_\t_\t4\tnsubj
4\tchased\tchase\tVERB\t_\t_\t0\troot
5\ta\ta\tDET\t_\t_\t7\tdet
6\tgray\tgray\tADJ\t_\t_\t7\tamod
7\tmouse\tmouse\tNOUN\t_\t_\t4\tdobj
"""


def conll_text(rows):
    """Rows of (form, lemma, pos, head, deprel) -> one CoNLL sentence block."""
    lines = []
    for i, (form, lemma, pos, head, deprel) in enumerate(rows, start=1):
        lines.append(f"{i}\t{form}\t{lemma}\t{pos}\t_\t_\t{head}\t{deprel}")
    return "\n".join(lines) + "\n"


def parse_rows(rows):
    """The sentence graph of ``rows``, rendered by ``conll_text`` and parsed."""
    (sentence,) = parse_conll(conll_text(rows))
    return sentence


def make_table(vectors):
    """An EmbeddingTable of ``vectors`` (lowercase token -> values), in their
    order, with the zero unknown vector that ``load_table`` gives."""
    matrix = np.array([np.asarray(v, dtype=float) for v in vectors.values()])
    matrix.flags.writeable = False
    unk = np.zeros(matrix.shape[1])
    unk.flags.writeable = False
    return EmbeddingTable({w: row for row, w in enumerate(vectors)}, matrix, unk)


def random_table(words, dim, seed=0):
    rng = np.random.default_rng(seed)
    return make_table({w.lower(): rng.normal(size=dim) for w in words})


def constant_model(labels, probs, word_dim=2, hidden_dim=2):
    """A model whose forward pass always yields the given distribution.

    All weights are zero and the bias holds the log-probabilities, so any
    feature vector (hence any pair) maps to ``probs``. Useful for exercising
    decision logic without training.
    """
    probs = np.asarray(probs, dtype=float)
    assert probs.shape == (len(labels),) and abs(probs.sum() - 1.0) < 1e-9
    empty = ComponentEmbeddings({}, np.zeros((1, 1)))
    encoder = PathEncoder(
        lemma=empty, pos=empty, deprel=empty, direction=empty,
        w_in=np.zeros((4 * hidden_dim, 4)),
        w_rec=np.zeros((4 * hidden_dim, hidden_dim)),
        bias=np.zeros(4 * hidden_dim),
    )
    width = 2 * word_dim + hidden_dim
    return ModelParams(
        encoder=encoder,
        w1=np.zeros((len(labels), width)),
        b1=np.log(probs),
        w2=None,
        b2=None,
        label_set=tuple(labels),
        word_dim=word_dim,
    )


def dense_gradients(params, grads):
    """Each gradient that ``loss_and_gradients`` gives, as a full array of its
    parameter's shape: zeros for None and for rows a RowGradient lacks."""
    out = {}
    for name, array in trainable_arrays(params).items():
        grad = getattr(grads, name)
        full = np.zeros(array.shape)
        if isinstance(grad, RowGradient):
            full[grad.rows] = grad.values
        elif grad is not None:
            full[...] = grad
        out[name] = full
    return out
