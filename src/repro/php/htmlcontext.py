"""Markup-context analysis for XSS sinks.

Section II notes that RIPS "performs a context-sensitive string
analysis based on the current markup context".  The exploitability and
the correct remediation of an XSS flow depend on *where inside the HTML*
the tainted value lands:

- element text (``<p>HERE</p>``) — escape with ``esc_html``;
- a quoted attribute value (``value="HERE"``) — ``esc_attr``;
- a URL attribute (``href="HERE"``) — ``esc_url``;
- a ``<script>`` block or event handler — ``esc_js``;
- an unquoted attribute — exploitable without any quote break.

:func:`context_at_end` runs a small HTML state machine over the literal
markup emitted *before* the tainted value and reports the context the
injection lands in; it jumps from one state-changing character to the
next with ``str.find`` and precompiled patterns.  The engine threads
this through XSS findings and the auto-fixer picks the matching
sanitizer.
"""

from __future__ import annotations

import enum
import re


class MarkupContext(enum.Enum):
    """Where inside the HTML output an injected value lands."""

    HTML_TEXT = "html"  # between tags
    ATTRIBUTE = "attribute"  # inside a quoted attribute value
    ATTRIBUTE_UNQUOTED = "attribute-unquoted"
    URL_ATTRIBUTE = "url"  # href/src/action/formaction value
    SCRIPT = "script"  # inside <script> ... </script>
    STYLE = "style"  # inside <style> ... </style>
    COMMENT = "comment"  # inside <!-- ... -->
    TAG = "tag"  # inside a tag but not in a value

    @property
    def recommended_sanitizer(self) -> str:
        """The WordPress escaping function for this context."""
        return _SANITIZERS[self]


_SANITIZERS = {
    MarkupContext.HTML_TEXT: "esc_html",
    MarkupContext.ATTRIBUTE: "esc_attr",
    MarkupContext.ATTRIBUTE_UNQUOTED: "esc_attr",
    MarkupContext.URL_ATTRIBUTE: "esc_url",
    MarkupContext.SCRIPT: "esc_js",
    MarkupContext.STYLE: "esc_attr",
    MarkupContext.COMMENT: "esc_html",
    MarkupContext.TAG: "esc_attr",
}

_URL_ATTRIBUTES = frozenset({"href", "src", "action", "formaction", "data"})

#: the characters that can move each state on; everything between them
#: is skipped with one search
_TAG_STOP = re.compile(r"[=>]")
_UNQUOTED_STOP = re.compile(r"[ \t\n>]")
# tag names fold ASCII case only (`ſ` is no `s`, `K` no `k`)
_RAW_CLOSERS = {
    MarkupContext.SCRIPT: re.compile(r"</script", re.IGNORECASE | re.ASCII),
    MarkupContext.STYLE: re.compile(r"</style", re.IGNORECASE | re.ASCII),
}
_TAG_NAME = re.compile(r"</?\s*([a-zA-Z][a-zA-Z0-9]*)")
_ATTR_NAME = re.compile(r"([a-zA-Z_:][\w:.-]*)\s*$")
_SPACES = re.compile(r"\s*")


def context_at_end(markup: str) -> MarkupContext:
    """The markup context immediately after emitting ``markup``.

    A linear scan with the states an HTML tokenizer distinguishes:
    text, tag, attribute name, quoted/unquoted attribute value, raw-text
    elements (script/style) and comments.  Each state jumps straight to
    the next character that can change it: ``<`` in text, ``=`` or
    ``>`` in a tag, the closing quote of a quoted value, ``-->`` in a
    comment, and ``</script`` or ``</style`` (any case) in raw text.
    """
    state = MarkupContext.HTML_TEXT
    index = 0
    end = len(markup)
    quote = ""
    current_attr = ""
    raw_element = ""  # "script" or "style" while inside one
    # an attribute name never spans the tag's `<`, an `=` or a closing
    # quote, so the name search before an `=` starts at the last of them
    name_from = 0

    while index < end:
        if state is MarkupContext.HTML_TEXT:
            index = markup.find("<", index)
            if index < 0:
                break
            if markup.startswith("<!--", index):
                state = MarkupContext.COMMENT
                index += 4
                continue
            state = MarkupContext.TAG
            current_attr = ""
            match = _TAG_NAME.match(markup, index)
            raw_element = match.group(1).lower() if match else ""
            name_from = index
            index += 1

        elif state is MarkupContext.TAG:
            match = _TAG_STOP.search(markup, index)
            if match is None:
                break
            index = match.start()
            if markup[index] == ">":
                if raw_element in ("script", "style") and not _self_closing(markup, index):
                    state = (
                        MarkupContext.SCRIPT
                        if raw_element == "script"
                        else MarkupContext.STYLE
                    )
                else:
                    state = MarkupContext.HTML_TEXT
                    raw_element = ""
                index += 1
                continue
            # `=`: the attribute name to its left, then a quote or a bare value
            left = _ATTR_NAME.search(markup, name_from, index)
            current_attr = left.group(1).lower() if left else ""
            name_from = index
            index = _SPACES.match(markup, index + 1).end()
            if markup[index:index + 1] in ("'", '"'):
                quote = markup[index]
                state = (
                    MarkupContext.URL_ATTRIBUTE
                    if current_attr in _URL_ATTRIBUTES
                    else MarkupContext.ATTRIBUTE
                )
                index += 1
            else:
                state = MarkupContext.ATTRIBUTE_UNQUOTED

        elif state is MarkupContext.ATTRIBUTE or state is MarkupContext.URL_ATTRIBUTE:
            index = markup.find(quote, index)
            if index < 0:
                break
            state = MarkupContext.TAG
            current_attr = ""
            name_from = index
            index += 1

        elif state is MarkupContext.ATTRIBUTE_UNQUOTED:
            match = _UNQUOTED_STOP.search(markup, index)
            if match is None:
                break
            index = match.start()
            state = MarkupContext.HTML_TEXT if markup[index] == ">" else MarkupContext.TAG
            current_attr = ""
            index += 1

        elif state is MarkupContext.COMMENT:
            index = markup.find("-->", index)
            if index < 0:
                break
            state = MarkupContext.HTML_TEXT
            index += 3

        else:  # SCRIPT or STYLE
            match = _RAW_CLOSERS[state].search(markup, index)
            if match is None:
                break
            state = MarkupContext.TAG
            raw_element = ""
            name_from = match.start()
            index = match.end()

    # event handlers are script contexts even though they are attributes
    if state in (MarkupContext.ATTRIBUTE, MarkupContext.ATTRIBUTE_UNQUOTED):
        if current_attr.startswith("on"):
            return MarkupContext.SCRIPT
    return state


def _self_closing(markup: str, index: int) -> bool:
    """Is the last non-whitespace character before ``index`` a ``/``?"""
    index -= 1
    while index >= 0 and markup[index].isspace():
        index -= 1
    return index >= 0 and markup[index] == "/"
