"""Tests for repro.cluster.cluster."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConditions, ResourceDimension
from repro.cluster.containers import ResourceConfiguration, ResourceError


class TestResourceDimension:
    def test_num_values(self):
        dim = ResourceDimension("x", 1.0, 10.0, 1.0)
        assert dim.num_values == 10

    def test_values(self):
        dim = ResourceDimension("x", 1.0, 3.0, 1.0)
        assert dim.values() == [1.0, 2.0, 3.0]

    def test_clamp(self):
        dim = ResourceDimension("x", 2.0, 5.0, 1.0)
        assert dim.clamp(0.0) == 2.0
        assert dim.clamp(9.0) == 5.0
        assert dim.clamp(3.0) == 3.0

    def test_contains(self):
        dim = ResourceDimension("x", 2.0, 5.0, 1.0)
        assert dim.contains(2.0) and dim.contains(5.0)
        assert not dim.contains(1.9)

    def test_bad_step_rejected(self):
        with pytest.raises(ResourceError):
            ResourceDimension("x", 1.0, 2.0, 0.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ResourceError):
            ResourceDimension("x", 5.0, 1.0, 1.0)


class TestClusterConditions:
    def test_paper_cluster_grid_size(self, paper_cluster):
        # 100 container counts x 10 container sizes.
        assert paper_cluster.grid_size == 1000

    def test_dimensions_order(self, paper_cluster):
        dims = paper_cluster.dimensions
        assert dims[0].name == "num_containers"
        assert dims[1].name == "container_gb"

    def test_step_sizes(self, paper_cluster):
        assert paper_cluster.step_sizes == (1.0, 1.0)

    def test_minimum_configuration(self, paper_cluster):
        assert paper_cluster.minimum_configuration == (
            ResourceConfiguration(num_containers=1, container_gb=1.0)
        )

    def test_maximum_configuration(self, paper_cluster):
        assert paper_cluster.maximum_configuration == (
            ResourceConfiguration(num_containers=100, container_gb=10.0)
        )

    def test_contains(self, paper_cluster):
        assert paper_cluster.contains(ResourceConfiguration(num_containers=50, container_gb=5.0))
        assert not paper_cluster.contains(
            ResourceConfiguration(num_containers=101, container_gb=5.0)
        )
        assert not paper_cluster.contains(
            ResourceConfiguration(num_containers=50, container_gb=10.5)
        )

    def test_clamp(self, paper_cluster):
        clamped = paper_cluster.clamp(ResourceConfiguration(num_containers=500, container_gb=50.0))
        assert clamped == ResourceConfiguration(num_containers=100, container_gb=10.0)

    def test_iter_configurations_count(self, small_cluster):
        configs = list(small_cluster.iter_configurations())
        assert len(configs) == small_cluster.grid_size
        assert len(set(configs)) == len(configs)

    def test_iter_configurations_all_contained(self, small_cluster):
        for config in small_cluster.iter_configurations():
            assert small_cluster.contains(config)

    def test_scaled(self, paper_cluster):
        bigger = paper_cluster.scaled(1000, 100.0)
        assert bigger.max_containers == 1000
        assert bigger.max_container_gb == 100.0
        assert bigger.min_containers == paper_cluster.min_containers

    def test_validation_errors(self):
        with pytest.raises(ResourceError):
            ClusterConditions(max_containers=0, max_container_gb=10.0)
        with pytest.raises(ResourceError):
            ClusterConditions(
                max_containers=10,
                max_container_gb=1.0,
                min_container_gb=2.0,
            )
        with pytest.raises(ResourceError):
            ClusterConditions(
                max_containers=10,
                max_container_gb=10.0,
                container_step=0,
            )
        with pytest.raises(ResourceError):
            ClusterConditions(
                max_containers=10,
                max_container_gb=10.0,
                container_gb_step=0.0,
            )

    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.5, max_value=64.0),
    )
    @settings(max_examples=50)
    def test_property_clamp_idempotent_and_contained(self, count, size):
        cluster = ClusterConditions(
            max_containers=100, max_container_gb=10.0
        )
        clamped = cluster.clamp(ResourceConfiguration(
            num_containers=count, container_gb=size
        ))
        assert cluster.contains(clamped)
        assert cluster.clamp(clamped) == clamped


class TestPositionalAxisShim:
    """The positional-axis shim is gone: every axis is keyword-only."""

    @pytest.mark.parametrize(
        "args",
        [(100, 10.0), (100, 10.0, 2, 0.5, 2, 0.5)],
        ids=["maxima", "all_axes"],
    )
    def test_positional_axes_raise(self, args):
        with pytest.raises(TypeError, match="positional argument"):
            ClusterConditions(*args)

    def test_keyword_axes_do_not_warn(self, recwarn):
        ClusterConditions(max_containers=100, max_container_gb=10.0)
        deprecations = [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations == []

    def test_duplicate_axis_rejected(self):
        with pytest.raises(TypeError):
            ClusterConditions(100, max_containers=50)

    def test_missing_maxima_rejected(self):
        with pytest.raises(TypeError, match="max_containers"):
            ClusterConditions(min_containers=1)

    def test_defaults_applied(self):
        cluster = ClusterConditions(max_containers=20, max_container_gb=8.0)
        assert cluster.min_containers == 1
        assert cluster.min_container_gb == 1.0
        assert cluster.container_step == 1
        assert cluster.container_gb_step == 1.0
