"""Correctness checks for the benchmark's artifacts.

Every check is a property the method must have or a bound computed
apart from the program; none compares against a stored copy of an
earlier output.  Each returns a list of failure messages (empty when
the artifact passes), so one run reports every broken property at once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = ["check_table2", "check_table2_writes", "check_figure1",
           "check_table1", "check_bytes_agree", "check_fleet",
           "check_same"]

#: Float rounding allowance for "at least" comparisons of simulated
#: times (a mean of 1000 slowdowns of exactly 1.0 can sum to
#: 0.9999999999999999).
TOLERANCE = 1e-9


def check_table2(rows: Sequence[Any], persistent_floor: float) -> List[str]:
    """Table 2: ordered cell statistics and the copy-time floor.

    ``persistent_floor`` is the write-through copy of the whole image
    at the disk's streaming rate; every persistent sample pays at least
    that, so the cell minimum must too.
    """
    failures = []
    cells = {(row.start_mode, row.storage_mode): row for row in rows}
    if len(cells) != 6:
        failures.append("table2 has %d cells, expected 6" % len(cells))
    for (start, storage), row in sorted(cells.items()):
        name = "%s/%s" % (start, storage)
        if not 0 < row.minimum <= row.mean <= row.maximum:
            failures.append("%s: not 0 < min %r <= mean %r <= max %r"
                            % (name, row.minimum, row.mean, row.maximum))
        if storage == "persistent" and row.minimum < persistent_floor:
            failures.append("%s: sample %.3f s below the %.3f s image copy"
                            % (name, row.minimum, persistent_floor))
    for storage in {storage for _start, storage in cells}:
        restore = cells.get(("restore", storage))
        reboot = cells.get(("reboot", storage))
        if restore and reboot and not restore.mean < reboot.mean:
            failures.append("%s: restore %.3f s not below reboot %.3f s"
                            % (storage, restore.mean, reboot.mean))
    for start in {start for start, _storage in cells}:
        persistent = cells.get((start, "persistent"))
        for storage in ("nonpersistent-diskfs", "nonpersistent-loopbacknfs"):
            other = cells.get((start, storage))
            if persistent and other and not persistent.mean > other.mean:
                failures.append("%s: persistent %.3f s not above %s %.3f s"
                                % (start, persistent.mean, storage,
                                   other.mean))
    return failures


def check_table2_writes(writes: Sequence[float], samples: int,
                        image_bytes: int) -> List[str]:
    """Traced Table 2: each persistent sample writes the whole image."""
    failures = []
    if len(writes) != samples:
        failures.append("traced %d persistent samples, expected %d"
                        % (len(writes), samples))
    for index, written in enumerate(writes):
        if written < image_bytes:
            failures.append("persistent sample %d wrote %d bytes, less "
                            "than the %d-byte image"
                            % (index, written, image_bytes))
    return failures


def check_figure1(results: Sequence[Any]) -> List[str]:
    """Figure 1: slowdowns are slowdowns, and the VM never speeds up."""
    failures = []
    by_key = {(r.load_level, r.test_on, r.load_on): r for r in results}
    if len(by_key) != 12:
        failures.append("figure1 has %d scenarios, expected 12"
                        % len(by_key))
    for key, result in sorted(by_key.items()):
        if result.mean_slowdown < 1.0 - TOLERANCE:
            failures.append("%s: mean slowdown %r below 1"
                            % ("/".join(key), result.mean_slowdown))
    base = by_key.get(("none", "physical", "physical"))
    if base is not None and (base.mean_slowdown != 1.0
                             or base.std_slowdown != 0.0):
        failures.append("none/physical/physical is %r +- %r, expected "
                        "exactly 1 +- 0" % (base.mean_slowdown,
                                            base.std_slowdown))
    for (level, test_on, load_on), result in sorted(by_key.items()):
        if test_on != "vm":
            continue
        physical = by_key.get((level, "physical", load_on))
        if physical is not None and \
                result.mean_slowdown < physical.mean_slowdown - TOLERANCE:
            failures.append("%s/load@%s: test in VM %r below test on "
                            "physical %r" % (level, load_on,
                                             result.mean_slowdown,
                                             physical.mean_slowdown))
    return failures


def check_table1(tables: Sequence[Tuple[int, Sequence[Any]]]) -> List[str]:
    """Table 1: physical < VM local < VM PVFS, per application and seed."""
    failures = []
    order = ("physical", "vm-localdisk", "vm-pvfs")
    for seed, rows in tables:
        totals: Dict[str, Dict[str, float]] = {}
        for row in rows:
            totals.setdefault(row.application, {})[row.resource] = \
                row.total_time
        if len(totals) != 2:
            failures.append("seed %d: %d applications, expected 2"
                            % (seed, len(totals)))
        for app, by_resource in sorted(totals.items()):
            values = [by_resource.get(resource) for resource in order]
            if None in values or not values[0] < values[1] < values[2]:
                failures.append("seed %d %s: totals %r not ordered "
                                "physical < vm-localdisk < vm-pvfs"
                                % (seed, app, values))
    return failures


def check_bytes_agree(nfs_bytes: float, flow_bytes: float) -> List[str]:
    """Traced Table 1: the NFS servers' reply bytes equal the bytes the
    flow engine delivered (two tallies summed independently)."""
    if nfs_bytes <= 0:
        return ["NFS served no bytes; the WAN path was not exercised"]
    if nfs_bytes != flow_bytes:
        return ["NFS served %r bytes but the flow engine delivered %r"
                % (nfs_bytes, flow_bytes)]
    return []


def check_fleet(data: Dict[str, Dict[str, Iterable[Dict[str, Any]]]],
                sites: int, sessions: int) -> List[str]:
    """Fleet: every session completes once and runs its full demand.

    ``data`` maps each site to its ``{"sessions": rows, "remote": rows}``
    collect payload.
    """
    failures = []
    if len(data) != sites:
        failures.append("fleet has %d sites, expected %d"
                        % (len(data), sites))
    completed = remote = 0
    for site, payload in sorted(data.items()):
        rows = list(payload["sessions"])
        completed += len(rows)
        remote += len(list(payload["remote"]))
        seen = sorted(row["session"] for row in rows)
        if seen != list(range(sessions)):
            missing = sorted(set(range(sessions)) - set(seen))
            failures.append("%s: sessions missing %r or repeated"
                            % (site, missing[:8]))
        for row in rows:
            demand = 2.0 + 0.25 * (row["session"] % 4)
            app = row["app_done"] - row["ready"]
            if app < demand - TOLERANCE:
                failures.append("%s session %d: application phase %.6f s "
                                "shorter than its %.2f s CPU demand"
                                % (site, row["session"], app, demand))
    if completed != sites * sessions:
        failures.append("%d sessions completed, expected %d"
                        % (completed, sites * sessions))
    if remote != sites * min(sessions, 8):
        failures.append("%d remote jobs, expected %d"
                        % (remote, sites * min(sessions, 8)))
    return failures


def check_same(first: Any, second: Any, what: str) -> List[str]:
    """Two renderings of one artifact must be equal."""
    return [] if first == second else ["%s differ" % what]
