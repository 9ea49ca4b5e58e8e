"""The argv corpus replayed in-process: every command line exits, prints
and writes what it did when the corpus was recorded (see
`record_argv_corpus.py`, which also records it anew)."""

import json
import time

from record_argv_corpus import CORPUS, corpus_argvs, corpus_directory, run_argv


def test_corpus_replays_byte_for_byte(tmp_path):
    recorded = json.loads(CORPUS.read_text())
    # the file holds the recorder's argvs, and every command is among them
    assert [entry["argv"] for entry in recorded] == corpus_argvs()
    assert {argv[0] for argv in corpus_argvs() if argv} >= {"tables", "estimate", "moments", "dual", "cbc"}
    start = time.perf_counter()
    with corpus_directory(tmp_path):
        replayed = [run_argv(entry["argv"]) for entry in recorded]
    elapsed = time.perf_counter() - start
    assert [got["argv"] for got, want in zip(replayed, recorded) if got != want] == []
    assert elapsed < 2.0
