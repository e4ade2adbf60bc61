"""`json.dumps(obj, indent=2)`, byte for byte, in one recursive pass.

With an indent the stdlib runs its pure-Python encoder, a chain of
generators per nesting level.  Here str (and dict keys) go through
`encode_basestring_ascii`, int through `int.__repr__`, bool and None are
their literals, and lists, tuples and str-keyed dicts are joined with
the stdlib's indented separators.  Any other subtree (floats, int or str
subclasses, a non-str key, a value JSON cannot encode) goes to
`json.dumps(sub, indent=2)`, re-indented to where it sits, so its text
or its error is the stdlib's; JSON text has no raw newline in a string.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii


def dumps_indented(obj) -> str:
    """The text of `json.dumps(obj, indent=2)`, or its exception."""
    out = []
    try:
        _write(obj, "\n", out.append)
    except RecursionError:
        # a cycle, or nesting past the stack: the stdlib's error or text
        return json.dumps(obj, indent=2)
    return "".join(out)


def _write(o, nl, put):
    """Put the pieces of o's text, o written at the indent after nl.  A
    module function, not a closure: a closure that calls itself is a
    reference cycle, which would keep every piece alive until the
    garbage collector runs."""
    t = type(o)
    if t is str:
        put(encode_basestring_ascii(o))
    elif t is int:
        put(int.__repr__(o))
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif o is None:
        put("null")
    elif t is list or t is tuple:
        if not o:
            put("[]")
            return
        inner = nl + "  "
        comma, sep = "," + inner, "[" + inner
        for v in o:
            put(sep)
            sep = comma
            _write(v, inner, put)
        put(nl + "]")
    elif t is dict and all(type(k) is str for k in o):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        comma, sep = "," + inner, "{" + inner
        for k, v in o.items():
            put(sep)
            sep = comma
            put(encode_basestring_ascii(k) + ": ")
            _write(v, inner, put)
        put(nl + "}")
    else:
        put(json.dumps(o, indent=2).replace("\n", nl))
