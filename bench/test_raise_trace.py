"""Tests of the raise tracer's AST extraction and report on a fake hit set,
with no suite run.

Run with ``python3 -m pytest bench``.
"""

import io
import textwrap
import threading

import raise_trace

SOURCE = textwrap.dedent('''\
    def f(x):
        if x < 0:
            raise ValueError("negative")  # line 3
        try:
            return 1 / x
        except ZeroDivisionError:
            raise  # line 7

    class C:
        def g(self):
            raise TypeError(  # line 11
                "a message on its own line"
            )

    # raise in a comment is not a statement
    s = "raise in a string is not one either"
''')


def _source(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    return path


def test_raise_lines_are_the_first_lines_of_raise_statements(tmp_path):
    assert raise_trace.raise_lines(_source(tmp_path)) == [3, 7, 11]


def test_report_lists_each_raise_whose_first_line_did_not_run(tmp_path):
    path = _source(tmp_path)
    out = io.StringIO()
    missed = raise_trace.report([path], {(str(path), 3), (str(path), 12)}, out)
    assert missed == 2
    assert out.getvalue() == (
        f"{path}:7: raise  # line 7\n"
        f"{path}:11: raise TypeError(  # line 11\n"
        "2 raise statement(s) not executed\n"
    )


def test_report_of_a_full_hit_set_is_empty(tmp_path):
    path = _source(tmp_path)
    out = io.StringIO()
    assert raise_trace.report([path], {(str(path), n) for n in (3, 7, 11)}, out) == 0
    assert out.getvalue() == "0 raise statement(s) not executed\n"


def test_tracer_records_lines_of_matching_files_on_worker_threads(tmp_path):
    path = _source(tmp_path)
    code = compile(SOURCE, str(path), "exec")
    scope = {}
    exec(code, scope)
    hits = set()
    tracer = raise_trace.line_tracer(hits, str(tmp_path))

    def call():
        try:
            scope["f"](-1)
        except ValueError:
            pass

    threading.settrace(tracer)
    try:
        worker = threading.Thread(target=call)
        worker.start()
        worker.join()
    finally:
        threading.settrace(None)
    assert hits == {(str(path), 2), (str(path), 3)}
