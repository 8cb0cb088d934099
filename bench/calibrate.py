"""A fixed piece of work that measures how fast the machine is right now.

    python3 bench/calibrate.py

The runner times this process from spawn to exit, as it times the semrel
commands, and scales the stage times by it (see bench/run.py). The work
resembles a semrel command and uses nothing of the package. The interpreter
starts and imports numpy. Then a small recurrent loop runs on 24-wide
vectors, as the path encoder does; a dict of 80,000 string keys is built
from tab-separated lines and read in random order, as loading a table or a
corpus does; and random rows of a 60,000-row matrix are updated in place,
as an SGD step on the lemma embeddings does. The dict and the matrix are
larger than a CPU cache, as the commands' data are, so a machine whose
caches or memory are contended slows this work too. It depends on nothing
but this file, so no change to the program changes its time.
"""

import numpy as np

STEPS = 5000
WIDTH = 24
KEYS = 80000
ROWS = 60000


def recurrent():
    rng = np.random.default_rng(0)
    w = rng.normal(0.0, 0.1, (4 * WIDTH, 2 * WIDTH))
    grad = np.zeros_like(w)
    h = np.zeros(WIDTH)
    c = np.zeros(WIDTH)
    xs = rng.normal(0.0, 1.0, (64, WIDTH))
    for t in range(STEPS):
        v = np.concatenate([xs[t % 64], h])
        z = w @ v
        gates = 1.0 / (1.0 + np.exp(-z[: 3 * WIDTH]))
        c = gates[WIDTH : 2 * WIDTH] * c + gates[:WIDTH] * np.tanh(z[3 * WIDTH :])
        h = gates[2 * WIDTH :] * np.tanh(c)
        grad += np.outer(z, v)
    return float(h.sum() + grad.sum())


def table():
    rows = {}
    for i in range(KEYS):
        cols = f"w{i * 7919 % KEYS}\t{i % 13}\tNOUN".split("\t")
        rows[cols[0]] = (int(cols[1]), cols[2])
    total = 0
    for i in np.random.default_rng(2).permutation(KEYS).tolist():
        total += rows[f"w{i}"][0]
    return total


def update():
    rng = np.random.default_rng(1)
    matrix = rng.normal(0.0, 0.1, (ROWS, 2 * WIDTH))
    grad = rng.normal(0.0, 0.01, (512, 2 * WIDTH))
    for _ in range(200):
        matrix[rng.integers(0, ROWS, 512)] -= 0.1 * grad
    for _ in range(10):
        matrix *= 0.999
    return float(matrix.sum())


if __name__ == "__main__":
    recurrent()
    table()
    update()
