"""Property tests for placement policies, the TKT and the node partition.

Satellite coverage for the TFluxDist tentpole: placement is what decides
how much TSU traffic crosses the network, so its basic contracts —
every block instance assigned to exactly one in-range kernel, template
``affinity`` overrides always honoured, contiguous chunks actually
contiguous — get pinned here, together with the kernel → node
:func:`~repro.tsu.policy.contiguous_partition` that the distributed
post-processing composes with the TKT.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import ProgramBuilder
from repro.tsu.policy import (
    contiguous_partition,
    contiguous_placement,
    round_robin_placement,
)
from repro.tsu.tkt import ThreadToKernelTable

POLICIES = {
    "contiguous": contiguous_placement,
    "round_robin": round_robin_placement,
}


def build_block(widths, affinities=None, tsu_capacity=None):
    """One program of len(widths) independent templates; first block."""
    affinities = affinities or {}
    b = ProgramBuilder("placement")
    b.env.alloc("out", max(sum(widths), 1))
    for j, w in enumerate(widths):
        b.thread(
            f"s{j}",
            body=lambda env, i: None,
            contexts=w,
            affinity=affinities.get(j),
        )
    blocks = b.build().blocks(tsu_capacity)
    return blocks[0]


@st.composite
def placement_cases(draw):
    widths = draw(
        st.lists(st.integers(min_value=1, max_value=17), min_size=1, max_size=4)
    )
    nkernels = draw(st.integers(min_value=1, max_value=9))
    return widths, nkernels


# -- partition: every instance placed exactly once, in range -------------------
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(case=placement_cases())
def test_placement_partitions_block_exactly(policy_name, case):
    widths, nkernels = case
    block = build_block(widths)
    assignment = POLICIES[policy_name](block, nkernels)
    assert len(assignment) == block.size
    assert all(0 <= k < nkernels for k in assignment)
    # Partition property through the TKT: threads_of(k) over all kernels
    # is a disjoint cover of the block's local ids.
    tkt = ThreadToKernelTable(assignment, nkernels)
    covered = [i for k in range(nkernels) for i in tkt.threads_of(k)]
    assert sorted(covered) == list(range(block.size))


@given(case=placement_cases())
def test_contiguous_chunks_are_contiguous_and_balanced(case):
    """Per template: kernel ids are non-decreasing over context order and
    chunk sizes differ by at most one (modulo the floor formula)."""
    widths, nkernels = case
    block = build_block(widths)
    assignment = contiguous_placement(block, nkernels)
    by_template = {}
    for local_iid, inst in enumerate(block.instances):
        by_template.setdefault(inst.template.tid, []).append(assignment[local_iid])
    for kernels in by_template.values():
        assert kernels == sorted(kernels)
        counts = [kernels.count(k) for k in range(nkernels)]
        nonzero = [c for c in counts if c]
        assert max(nonzero) - min(nonzero) <= 1


@given(case=placement_cases())
def test_round_robin_is_cyclic(case):
    widths, nkernels = case
    block = build_block(widths)
    assignment = round_robin_placement(block, nkernels)
    pos_by_template = {}
    for local_iid, inst in enumerate(block.instances):
        pos = pos_by_template.setdefault(inst.template.tid, [0])
        assert assignment[local_iid] == pos[0] % nkernels
        pos[0] += 1


# -- affinity overrides --------------------------------------------------------
@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(
    case=placement_cases(),
    pin=st.integers(min_value=0, max_value=100),
)
def test_affinity_override_wins(policy_name, case, pin):
    """A template with an affinity callable is placed exactly where it
    says (mod nkernels), whatever the policy would have chosen."""
    widths, nkernels = case
    block = build_block(widths, affinities={0: lambda ctx, n, pin=pin: pin})
    assignment = POLICIES[policy_name](block, nkernels)
    for local_iid, inst in enumerate(block.instances):
        if inst.template.name == "s0":
            assert assignment[local_iid] == pin % nkernels


# -- the kernel -> node partition ---------------------------------------------
@st.composite
def node_tables(draw):
    nkernels = draw(st.integers(min_value=1, max_value=12))
    nnodes = draw(st.integers(min_value=1, max_value=nkernels))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=nkernels - 1),
            min_size=1,
            max_size=40,
        )
    )
    return assignment, nkernels, nnodes


def _kernels_of(partition, node):
    return [k for k, n in enumerate(partition) if n == node]


@given(table=node_tables())
def test_node_tkt_round_trips(table):
    """instance → (node, kernel) through the TKT and the contiguous
    kernel→node partition agrees with the partition formula."""
    assignment, nkernels, nnodes = table
    base = ThreadToKernelTable(assignment, nkernels)
    partition = contiguous_partition(nkernels, nnodes)
    assert len(partition) == nkernels
    for local_iid in range(len(base)):
        kernel = base.kernel_of(local_iid)
        node = partition[kernel]
        assert node == kernel * nnodes // nkernels
        assert kernel in _kernels_of(partition, node)


@given(table=node_tables())
def test_node_tkt_kernel_partition_covers_all_nodes(table):
    _assignment, nkernels, nnodes = table
    partition = contiguous_partition(nkernels, nnodes)
    covered = [k for n in range(nnodes) for k in _kernels_of(partition, n)]
    assert sorted(covered) == list(range(nkernels))
    # Contiguity: each node owns one unbroken kernel range.
    for n in range(nnodes):
        ks = _kernels_of(partition, n)
        assert ks  # nnodes <= nkernels: nobody is empty
        assert ks == list(range(ks[0], ks[-1] + 1))


def test_node_tkt_rejects_bad_node_counts():
    with pytest.raises(ValueError):
        contiguous_partition(2, 0)
    with pytest.raises(ValueError):
        contiguous_partition(2, 3)
