import pytest
from hypothesis import example, given, settings, strategies as st

from robusta import Graph, complete, erdos_renyi, parse_graph, to_dot, write_dimacs, write_edgelist
from robusta.graphio import HEADER_COUNT_CAP, ParseError, parse_dimacs, parse_edgelist
from robusta.treewidth import read_td


def test_parse_dimacs_triangle():
    g, mapping = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "dimacs-col")
    assert g == complete(3)
    assert mapping == {"1": 0, "2": 1, "3": 2}


def test_parse_dimacs_comments_and_isolated():
    g, _ = parse_dimacs("c hello\np edge 4 1\ne 1 2\n")
    assert g.n == 4 and g.m == 1 and g.degree(3) == 0


def test_parse_edgelist_single_edge():
    g, mapping = parse_graph("0 1\n", "edge-list")
    assert g == complete(2)
    assert mapping == {"0": 0, "1": 1}


def test_parse_edgelist_sparse_labels():
    g, mapping = parse_edgelist("10 40\n40 7\n")
    assert g.n == 3
    assert mapping == {"7": 0, "10": 1, "40": 2}
    assert g.has_edge(1, 2) and g.has_edge(0, 2)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_dimacs("p edge 3 1\ne 1 1\n")
    assert "line 2" in str(err.value) and "loop" in str(err.value)
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 2\ne 1 2\ne 2 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")  # edge before header
    with pytest.raises(ParseError):
        parse_dimacs("p edge 3 5\ne 1 2\n")  # declared count mismatch
    with pytest.raises(ParseError, match="line 2:.*above the limit"):
        parse_dimacs("c big\np edge 1000000 0\n")  # rejected before allocating
    assert parse_dimacs(f"p edge {HEADER_COUNT_CAP} 0\n")[0].n == HEADER_COUNT_CAP
    with pytest.raises(ParseError):
        parse_edgelist("1 2 3\n")
    with pytest.raises(ParseError):
        parse_edgelist("3 3\n")


def test_roundtrip_both_formats():
    for seed in range(10):
        g = erdos_renyi(7, 0.5, seed)
        back, _ = parse_graph(write_dimacs(g), "dimacs")
        assert back == g
        back2, mapping = parse_graph(write_edgelist(g), "edgelist")
        # edge lists drop isolated vertices; compare on the support
        support = sorted({v for e in g.edges for v in e})
        relabel = {old: i for i, old in enumerate(support)}
        assert back2.edges == {tuple(sorted((relabel[u], relabel[v])))
                               for u, v in g.edges}


def test_dot_export():
    text = to_dot(Graph(3, [(0, 1)]))
    assert "0 -- 1;" in text and "2;" in text and text.startswith("graph G {")


# Line-shaped texts built from the keywords of all three formats, small
# integers and short arbitrary strings, mixed with wholly arbitrary text.
# Numbers stay small: a header may declare that many vertices or bags (up
# to HEADER_COUNT_CAP), and the parsers allocate them.
_NUMBER = st.integers(min_value=-3, max_value=9).map(str)
_TOKEN = st.one_of(_NUMBER, st.sampled_from(["#", "-", "+1", "0x1", "1.5", "1_0", ""]),
                   st.text(max_size=3))
_LINE = st.one_of(
    st.builds(lambda head, rest: " ".join([head, *rest]),
              st.sampled_from(["p edge", "p col", "p", "e", "c", "s td", "s", "b", ""]),
              st.lists(_NUMBER, max_size=4)),
    st.lists(_TOKEN, max_size=5).map(" ".join))
_TEXTS = st.one_of(st.text(max_size=60),
                   st.lists(_LINE, max_size=6).map("\n".join))


@pytest.mark.parametrize("parse", [parse_dimacs, parse_edgelist, read_td],
                         ids=["dimacs", "edgelist", "td"])
@given(text=_TEXTS)
@example(text="p edge -3 0\n")
@example(text="p edge 1000000 0\n")
@example(text="s td 1000000 1 1\n")
@settings(max_examples=200, deadline=None)
def test_parsers_raise_only_parse_error(parse, text):
    """Any text either parses or raises ParseError, never another exception."""
    try:
        parse(text)
    except ParseError:
        pass
