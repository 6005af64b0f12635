"""Concurrent dispatch against one SL-Remote: no over-grant, no cross-license blocking.

The server concurrency model (per-license locking, see
``repro.core.sl_remote``) makes two promises:

* renewals of the *same* license serialize on that license's lock, so
  the ledger can never hand out more units than the pool holds, no
  matter how many threads race;
* renewals of *different* licenses share no lock, so one hot license
  cannot stall the rest of the fleet.
"""

import threading

from repro.core.protocol import RenewRequest, Status
from repro.core.sl_remote import SlRemote
from repro.sgx import RemoteAttestationService

POOL = 10_000


def build_remote(licenses=("lic-a",), clients=8, pool=POOL):
    remote = SlRemote(RemoteAttestationService(accept_any_platform=True))
    blobs = {}
    for license_id in licenses:
        definition = remote.issue_license(license_id, pool)
        blobs[license_id] = definition.license_blob()
    for slid in range(1, clients + 1):
        remote.handle_admit(slid)
    return remote, blobs


def renew(remote, blobs, slid, license_id):
    return remote.handle_renew(RenewRequest(
        slid=slid, license_id=license_id, license_blob=blobs[license_id],
        network_reliability=1.0, health=1.0,
    ))


class TestSameLicenseNeverOverGrants:
    def test_racing_renewals_conserve_the_pool(self):
        """8 threads hammer one license; grants never exceed the pool."""
        threads_n, rounds = 8, 40
        remote, blobs = build_remote(clients=threads_n)
        granted = [0] * threads_n
        barrier = threading.Barrier(threads_n)

        def worker(index):
            barrier.wait()  # maximize the race window
            slid = index + 1
            for _ in range(rounds):
                response = renew(remote, blobs, slid, "lic-a")
                if response.status is Status.OK:
                    granted[index] += response.granted_units

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

        ledger = remote.ledger("lic-a")
        outstanding = sum(ledger.outstanding.values())
        # The two halves of the invariant: grants equal what the ledger
        # tracks as outstanding, and the pool balances exactly.
        assert sum(granted) == outstanding
        assert sum(granted) <= POOL
        assert outstanding + ledger.lost_units + ledger.available == POOL

    def test_renewal_counter_is_exact_under_contention(self):
        threads_n, rounds = 6, 25
        remote, blobs = build_remote(clients=threads_n)

        def worker(index):
            for _ in range(rounds):
                renew(remote, blobs, index + 1, "lic-a")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert remote.renewals_served == threads_n * rounds

    def test_concurrent_crash_writeoff_conserves_units(self):
        """Crashes racing live renewals must not lose or mint units."""
        remote, blobs = build_remote(clients=4)
        for slid in (1, 2, 3, 4):
            renew(remote, blobs, slid, "lic-a")

        def crash(slid):
            remote.report_crash(slid)

        def keep_renewing(slid):
            for _ in range(20):
                renew(remote, blobs, slid, "lic-a")

        threads = ([threading.Thread(target=crash, args=(s,)) for s in (1, 2)]
                   + [threading.Thread(target=keep_renewing, args=(s,))
                      for s in (3, 4)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        ledger = remote.ledger("lic-a")
        outstanding = sum(ledger.outstanding.values())
        assert outstanding + ledger.lost_units + ledger.available == POOL


class TestDifferentLicensesDoNotBlock:
    def test_renewal_proceeds_while_another_license_is_locked(self):
        """Holding license A's lock must not stall a renewal of B.

        This is the regression guard for the historical global dispatch
        lock: under that design the renewal below would deadlock-wait
        until A's lock was released.
        """
        remote, blobs = build_remote(licenses=("lic-a", "lic-b"), clients=2)
        lock_a = remote.license_state("lic-a").lock
        done = threading.Event()
        responses = []

        def renew_b():
            responses.append(renew(remote, blobs, 1, "lic-b"))
            done.set()

        with lock_a:  # someone is mid-commit on license A...
            thread = threading.Thread(target=renew_b)
            thread.start()
            # ...and license B's renewal completes regardless.
            assert done.wait(timeout=10), \
                "renewal of lic-b blocked behind lic-a's lock"
        thread.join(timeout=10)
        assert responses[0].status is Status.OK

    def test_same_license_does_wait_for_the_lock(self):
        """Counterpart: a same-license renewal queues on that lock."""
        remote, blobs = build_remote(licenses=("lic-a",), clients=2)
        lock_a = remote.license_state("lic-a").lock
        done = threading.Event()

        def renew_a():
            renew(remote, blobs, 1, "lic-a")
            done.set()

        with lock_a:
            thread = threading.Thread(target=renew_a)
            thread.start()
            assert not done.wait(timeout=0.3)  # held lock gates the grant
        assert done.wait(timeout=10)
        thread.join(timeout=10)


class TestTypedUnknownClient:
    def test_renew_unknown_slid(self):
        remote, blobs = build_remote(clients=1)
        response = renew(remote, blobs, 999, "lic-a")
        assert response.status is Status.UNKNOWN_CLIENT

    def test_admit_makes_a_foreign_slid_renewable(self):
        remote, blobs = build_remote(clients=0)
        assert renew(remote, blobs, 41, "lic-a").status is Status.UNKNOWN_CLIENT
        assert remote.handle_admit(41) is Status.OK
        assert renew(remote, blobs, 41, "lic-a").status is Status.OK

    def test_admit_advances_local_slid_allocation(self):
        """A locally allocated SLID never collides with an admitted one."""
        remote, _ = build_remote(clients=0)
        remote.handle_admit(7)
        with remote._clients_lock:
            next_slid = remote._next_slid
        assert next_slid == 8
