"""Empty ``verify`` memos for a test that patches a library function.

The suites share work through ``functools.cache`` on three functions of
:mod:`torusq.verify`.  A test that patches what they read (a faulty
``classify_holes``, a miscounting ``invariant_dimension``) or counts
what they build must start on empty caches, and must not leave its
results in the caches later tests read.  Patching each with a fresh
cache of the same function gives both: the warm caches come back when
the monkeypatch is undone.
"""

import functools

from torusq import verify

MEMOS = ("minuscule_model", "_invariant_dimension", "_partition_of_word")


def fresh_verify_memos(monkeypatch):
    for name in MEMOS:
        fn = getattr(verify, name)
        monkeypatch.setattr(verify, name, functools.cache(fn.__wrapped__))
