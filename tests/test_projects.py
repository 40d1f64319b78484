"""Project-list loading and repository resolution."""

import pytest

from oss_health.projects import (
    Candidate,
    ProjectEntry,
    ResolutionStatus,
    load_project_list,
    mark_duplicates,
    parse_overrides,
    resolve_repo,
    source_owner,
)


def entry(**kwargs) -> ProjectEntry:
    defaults = dict(
        name="Bitcoin",
        symbol="BTC",
        cmc_rank=1,
        website="https://bitcoin.org",
        source_location="https://github.com/bitcoin",
    )
    defaults.update(kwargs)
    return ProjectEntry(**defaults)


class TestOverrides:
    def test_parse(self):
        text = "# manual fixes\nBitcoin = bitcoin/bitcoin\nEthereum=ethereum/go-ethereum\n"
        assert parse_overrides(text) == {
            "Bitcoin": "bitcoin/bitcoin",
            "Ethereum": "ethereum/go-ethereum",
        }

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_overrides("not an assignment")

    def test_repeated_name_names_both_lines(self):
        with pytest.raises(ValueError) as excinfo:
            parse_overrides("Bitcoin = a/b\n# again\nBitcoin = c/d\n")
        assert str(excinfo.value) == "overrides lines 1 and 3: 'Bitcoin' given twice"

    def test_bad_repo_id_rejected(self):
        with pytest.raises(ValueError, match="owner/repo"):
            parse_overrides("Bitcoin = justaname")


class TestLoadProjectList:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "projects.csv"
        path.write_text(
            "name,symbol,cmc_rank,website,source_location,alexa_rank\n"
            "Bitcoin,BTC,1,https://bitcoin.org,https://github.com/bitcoin,9000\n"
            "Shadow,SHD,2,https://shadow.example,,\n"
        )
        entries = load_project_list(path)
        assert entries[0].alexa_rank == 9000
        assert entries[1].source_location is None
        assert entries[1].alexa_rank is None

    def test_duplicate_ranks_rejected(self, tmp_path):
        path = tmp_path / "projects.csv"
        path.write_text(
            "name,symbol,cmc_rank,website,source_location,alexa_rank\n"
            "A,A,1,https://a.example,,\n"
            "B,B,2,https://b.example,,\n"
            "C,C,1,https://c.example,,\n"
        )
        with pytest.raises(ValueError) as excinfo:
            load_project_list(path)
        assert str(excinfo.value) == f"{path}, lines 2 and 4: cmc_rank 1 given twice"

    def test_bad_rank_names_line_and_column(self, tmp_path):
        path = tmp_path / "projects.csv"
        path.write_text(
            "name,symbol,cmc_rank,website,source_location,alexa_rank\n"
            "A,A,1,https://a.example,,\n"
            "B,B,x,https://b.example,,\n"
        )
        with pytest.raises(ValueError) as excinfo:
            load_project_list(path)
        assert str(excinfo.value) == f"{path}, line 3, column 'cmc_rank': 'x' is not an integer"

    @pytest.mark.parametrize("alexa_rank", ["", ",alexa_rank"])
    def test_short_row_names_its_first_missing_cell(self, tmp_path, alexa_rank):
        # with or without the optional column in the header
        path = tmp_path / "projects.csv"
        path.write_text(f"name,symbol,cmc_rank,website,source_location{alexa_rank}\nA,A,1\n")
        with pytest.raises(ValueError) as excinfo:
            load_project_list(path)
        assert str(excinfo.value) == f"{path}, line 2, column 'website': no cell"

    def test_missing_column_named_at_line_one(self, tmp_path):
        path = tmp_path / "projects.csv"
        path.write_text("name,symbol,cmc_rank,website\nA,A,1,https://a.example\n")
        with pytest.raises(ValueError) as excinfo:
            load_project_list(path)
        assert str(excinfo.value) == f"{path}, line 1: no 'source_location' column"


class TestResolveRepo:
    def test_override_wins(self):
        res = resolve_repo(entry(), [], {"Bitcoin": "bitcoin/bitcoin"})
        assert res.status is ResolutionStatus.RESOLVED
        assert res.repo_id == "bitcoin/bitcoin"

    def test_unlabelled_max_stars(self):
        candidates = [Candidate("org/a", 10), Candidate("org/b", 20)]
        res = resolve_repo(entry(source_location="https://github.com/org"), candidates)
        assert res.repo_id == "org/b"

    def test_star_tie_goes_to_larger_repo_id(self):
        candidates = [Candidate("org/b", 20), Candidate("org/a", 20)]
        res = resolve_repo(entry(source_location="https://github.com/org"), candidates)
        assert res.repo_id == "org/b"

    @pytest.mark.parametrize("location, owner", [
        ("https://github.com/Bitcoin", "bitcoin"),
        ("github.com/bitcoin/bitcoin", "bitcoin"),
        ("www.github.com/bitcoin", "bitcoin"),
        ("HTTP://WWW.GitHub.com/bitcoin/", "bitcoin"),
        ("https://gitlab.com/bitcoin/node", None),
        ("gitlab.com/bitcoin/node", None),
        ("git@github.com:bitcoin/bitcoin.git", "bitcoin"),
        ("github.com:443/bitcoin", "bitcoin"),
        ("https://github.com:443/bitcoin", "bitcoin"),
        ("ssh://git@github.com/bitcoin/bitcoin", "bitcoin"),
        ("git@gitlab.com:foreign/node.git", None),
        ("https://github.com/", None),
        ("github.com", None),
        ("", None),
        (None, None),
    ])
    def test_source_owner(self, location, owner):
        assert source_owner(location) == owner

    def test_no_source_location(self):
        res = resolve_repo(entry(source_location=None), [])
        assert res.status is ResolutionStatus.NOT_LISTED

    def test_foreign_host(self):
        res = resolve_repo(entry(source_location="https://gitlab.com/group/project"), [])
        assert res.status is ResolutionStatus.FOREIGN_HOST

    def test_foreign_host_in_ssh_form(self):
        res = resolve_repo(entry(source_location="git@gitlab.com:foreign/node.git"), [])
        assert res.status is ResolutionStatus.FOREIGN_HOST

    def test_private_listed(self):
        res = resolve_repo(entry(), None)
        assert res.status is ResolutionStatus.PRIVATE_LISTED

    def test_missing_404(self):
        res = resolve_repo(entry(), [])
        assert res.status is ResolutionStatus.MISSING_404

    def test_every_entry_gets_exactly_one_status(self):
        cases = [
            (entry(), [Candidate("org/a", 1)], {}),
            (entry(), [], {}),
            (entry(), None, {}),
            (entry(source_location=None), [], {}),
            (entry(source_location="https://bitbucket.org/x/y"), [], {}),
            (entry(), [], {"Bitcoin": "a/b"}),
        ]
        for case in cases:
            res = resolve_repo(*case)
            assert isinstance(res.status, ResolutionStatus)


class TestMarkDuplicates:
    def test_lowest_rank_keeps_repo(self):
        first = resolve_repo(entry(cmc_rank=2, name="WrappedCoin"), [], {"WrappedCoin": "a/b"})
        second = resolve_repo(entry(cmc_rank=1, name="Coin"), [], {"Coin": "a/b"})
        marked = mark_duplicates([first, second])
        by_name = {r.project.name: r for r in marked}
        assert by_name["Coin"].status is ResolutionStatus.RESOLVED
        assert by_name["WrappedCoin"].status is ResolutionStatus.DUPLICATE
        assert by_name["WrappedCoin"].repo_id == "a/b"

    def test_distinct_repos_untouched(self):
        a = resolve_repo(entry(name="A", cmc_rank=1), [], {"A": "a/a"})
        b = resolve_repo(entry(name="B", cmc_rank=2), [], {"B": "b/b"})
        assert all(r.status is ResolutionStatus.RESOLVED for r in mark_duplicates([a, b]))

    def test_output_in_rank_order(self):
        second = resolve_repo(entry(name="B", cmc_rank=2), [], {"B": "b/b"})
        first = resolve_repo(entry(name="A", cmc_rank=1), [], {"A": "a/a"})
        marked = mark_duplicates([second, first])
        assert [r.project.cmc_rank for r in marked] == [1, 2]
