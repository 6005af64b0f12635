"""Tokens of execution.

When SL-Local validates a license check it returns a *token of
execution* to the requesting SL-Manager (Section 4.4 step 2).  The
paper notes the token "can be anything from a simple Boolean value to a
data packet"; we use a small signed packet so tests can verify it is
unforgeable by untrusted code and bound to a specific lease and nonce.

Section 7.3's optimisation — granting multiple tokens per local
attestation — shows up here as ``grants``: one token object may
authorise up to ``grants`` executions, consumed one at a time by
SL-Manager.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hmac import hmac_sha256_word


class TokenError(Exception):
    """Raised when verifying or consuming an invalid token."""


@dataclass
class ExecutionToken:
    """A signed grant of executions for one license.

    The MAC covers the *initial* grant count; ``grants`` counts down as
    the holder spends executions.  Inflating either field breaks the
    MAC check (``grants`` may never exceed ``initial_grants``).
    """

    license_id: str
    lease_id: int
    nonce: int
    grants: int
    initial_grants: int
    mac: int

    @staticmethod
    def issue(license_id: str, lease_id: int, nonce: int, grants: int,
              signing_secret: int) -> "ExecutionToken":
        if grants <= 0:
            raise TokenError("a token must grant at least one execution")
        mac = _token_mac(license_id, lease_id, nonce, grants, signing_secret)
        return ExecutionToken(
            license_id=license_id,
            lease_id=lease_id,
            nonce=nonce,
            grants=grants,
            initial_grants=grants,
            mac=mac,
        )

    def verify(self, signing_secret: int) -> None:
        expected = _token_mac(
            self.license_id, self.lease_id, self.nonce, self.initial_grants,
            signing_secret,
        )
        if expected != self.mac:
            raise TokenError(f"token MAC mismatch for {self.license_id!r}")
        if not 0 <= self.grants <= self.initial_grants:
            raise TokenError(
                f"token for {self.license_id!r} claims more grants than issued"
            )

    def consume(self) -> None:
        """Spend one grant; raises once exhausted."""
        if self.grants <= 0:
            raise TokenError(f"token for {self.license_id!r} is exhausted")
        self.grants -= 1

    @property
    def exhausted(self) -> bool:
        return self.grants <= 0


def _token_mac(license_id: str, lease_id: int, nonce: int, grants: int,
               secret: int) -> int:
    body = (
        license_id.encode("utf-8")
        + lease_id.to_bytes(4, "big")
        + nonce.to_bytes(8, "big")
        + grants.to_bytes(4, "big")
    )
    return hmac_sha256_word(secret.to_bytes(8, "big"), body)
