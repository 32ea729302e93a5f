import os
import sys
from pathlib import Path

import pytest

import hyperrank as hr

sys.path.insert(0, str(Path(__file__).parent))


def child_env() -> dict:
    """The environment for a child interpreter that imports this checkout's
    `hyperrank`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# Printed reference rows for the 6-node worked example (labels 1..6), one per
# uniformization order; generated with the gauge-fixed solver convention.
TABLE_ROWS = {
    2: (0.0929, 0.1802, 0.1690, 0.2084, 0.2084, 0.1412),
    3: (0.0623, 0.1949, 0.1943, 0.2060, 0.2060, 0.1364),
    4: (0.0853, 0.1959, 0.1953, 0.1993, 0.1993, 0.1250),
}


@pytest.fixture
def fig1() -> hr.Hypergraph:
    """Five nodes, edges {1,2,3}, {2,4}, {3,5}."""
    return hr.Hypergraph.from_edge_list([[1, 2, 3], [2, 4], [3, 5]])


@pytest.fixture
def example6() -> hr.Hypergraph:
    """Six nodes, edges {1,2}, {2,3,4,5}, {4,5,6}; nodes 4 and 5 symmetric."""
    return hr.Hypergraph.from_edge_list([[1, 2], [2, 3, 4, 5], [4, 5, 6]])


@pytest.fixture
def path3() -> hr.Hypergraph:
    return hr.Hypergraph.from_edge_list([[1, 2], [2, 3]])


@pytest.fixture
def two_aux_uplift(path3) -> hr.Hypergraph:
    """Path graph padded to 5-uniform with one single and one doubled aux node."""
    return hr.multi_uplift(path3, 5, (1, 2))
