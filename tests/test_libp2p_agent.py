"""Tests for agent-version string parsing and classification."""


from repro.libp2p.agent import (
    goipfs_release_group,
    is_crawler_agent,
    is_goipfs_agent,
    is_hydra_agent,
    parse_goipfs_agent,
)


class TestParsing:
    def test_parse_plain_release(self):
        parsed = parse_goipfs_agent("go-ipfs/0.11.0")
        assert parsed is not None
        assert parsed.release == (0, 11, 0)
        assert parsed.commit == ""
        assert not parsed.dirty

    def test_parse_with_commit(self):
        parsed = parse_goipfs_agent("go-ipfs/0.10.0/64b532fbb")
        assert parsed.commit == "64b532fbb"
        assert not parsed.dirty

    def test_parse_dirty_commit(self):
        parsed = parse_goipfs_agent("go-ipfs/0.11.0-dev/0c2f9d5-dirty")
        assert parsed.dirty
        assert parsed.commit == "0c2f9d5"
        assert parsed.suffix == "-dev"

    def test_parse_rejects_other_agents(self):
        assert parse_goipfs_agent("hydra-booster/0.7.4") is None
        assert parse_goipfs_agent("storm") is None
        assert parse_goipfs_agent(None) is None
        assert parse_goipfs_agent("") is None

    def test_parse_rejects_malformed_version(self):
        assert parse_goipfs_agent("go-ipfs/not-a-version") is None

    def test_agent_string_round_trip(self):
        parsed = parse_goipfs_agent("go-ipfs/0.9.1/abc123-dirty")
        rebuilt = f"go-ipfs/{parsed.release_string}/{parsed.commit}-dirty"
        assert parse_goipfs_agent(rebuilt) == parsed


class TestComparison:
    def test_release_ordering(self):
        old = parse_goipfs_agent("go-ipfs/0.9.1")
        new = parse_goipfs_agent("go-ipfs/0.11.0")
        assert old < new
        assert not new < old

    def test_equality_includes_commit_and_dirty(self):
        a = parse_goipfs_agent("go-ipfs/0.11.0/abc")
        b = parse_goipfs_agent("go-ipfs/0.11.0/abc-dirty")
        assert a != b

    def test_hashable(self):
        a = parse_goipfs_agent("go-ipfs/0.11.0/abc")
        b = parse_goipfs_agent("go-ipfs/0.11.0/abc")
        assert len({a, b}) == 1


class TestClassifiers:
    def test_is_goipfs(self):
        assert is_goipfs_agent("go-ipfs/0.11.0")
        assert not is_goipfs_agent("rust-ipfs/0.1.0")

    def test_is_hydra(self):
        assert is_hydra_agent("hydra-booster/0.7.4")
        assert not is_hydra_agent("go-ipfs/0.11.0")

    def test_is_crawler(self):
        assert is_crawler_agent("nebula-crawler/1.0.0")
        assert is_crawler_agent("ipfs crawler")
        assert not is_crawler_agent("go-ipfs/0.11.0")
        assert not is_crawler_agent(None)

    def test_release_group(self):
        assert goipfs_release_group("go-ipfs/0.11.0/abc") == "0.11.0"
        assert goipfs_release_group("go-ipfs/0.5.0-dev/x") == "0.5.0-dev"
        assert goipfs_release_group("storm") is None
