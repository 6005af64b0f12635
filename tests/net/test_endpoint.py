"""The endpoint factory: URL parsing and config validation.

Two contracts are held here:

* ``parse_endpoint`` / ``format_endpoint`` are exact inverses, and a
  malformed endpoint string is rejected whole (property-tested).
* :class:`EndpointConfig` is the *single* validation point for every
  transport knob; query parameters, keyword overrides, and base configs
  fold together with URL-wins precedence.
"""

import pytest
from hypothesis import given, strategies as st

from repro.net.endpoint import (
    ENDPOINT_SCHEMES,
    EndpointConfig,
    ParsedEndpoint,
    connect,
    endpoint_for,
    format_endpoint,
    parse_endpoint,
)

# ----------------------------------------------------------------------
# URL grammar strategies (no separator characters in atoms)
# ----------------------------------------------------------------------
hosts = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-",
                min_size=1, max_size=12)
ports = st.integers(min_value=1, max_value=65535)
addresses = st.tuples(hosts, ports)
shard_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                     min_size=1, max_size=8)
param_values = {
    "timeout": st.floats(min_value=0.001, max_value=60.0,
                         allow_nan=False).map(str),
    "max_attempts": st.integers(min_value=1, max_value=9).map(str),
    "backoff": st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False).map(str),
    "reconnect_attempts": st.integers(min_value=1, max_value=9).map(str),
    "reconnect_backoff": st.floats(min_value=0.0, max_value=1.0,
                                   allow_nan=False).map(str),
    "io": st.sampled_from(["threads", "async"]),
    "ring_replicas": st.integers(min_value=1, max_value=128).map(str),
    "migrate_retries": st.integers(min_value=0, max_value=99).map(str),
    "replicas": st.integers(min_value=0, max_value=2).map(str),
}


@st.composite
def parsed_endpoints(draw):
    scheme = draw(st.sampled_from(sorted(ENDPOINT_SCHEMES)))
    keys = draw(st.lists(st.sampled_from(sorted(param_values)),
                         unique=True, max_size=4))
    params = tuple((key, draw(param_values[key])) for key in keys)
    if scheme in ("sl+inproc", "sl+serialized"):
        return ParsedEndpoint(scheme=scheme, addresses=(), params=params)
    count = draw(st.integers(min_value=1, max_value=4)) \
        if scheme == "sl+sharded" else 1
    addrs = tuple(draw(addresses) for _ in range(count))
    names = None
    if scheme == "sl+sharded" and draw(st.booleans()):
        names = tuple(draw(st.lists(shard_name, min_size=count,
                                    max_size=count, unique=True)))
    return ParsedEndpoint(scheme=scheme, addresses=addrs,
                          shard_names=names, params=params)


class TestEndpointGrammar:
    @given(parsed_endpoints())
    def test_format_parse_round_trip(self, parsed):
        """format_endpoint is the exact inverse of parse_endpoint."""
        url = format_endpoint(parsed.scheme, parsed.addresses,
                              parsed.shard_names, parsed.params)
        assert parse_endpoint(url) == parsed

    @given(parsed_endpoints())
    def test_parse_format_is_stable(self, parsed):
        """Formatting what was parsed reproduces the same URL."""
        url = format_endpoint(parsed.scheme, parsed.addresses,
                              parsed.shard_names, parsed.params)
        reparsed = parse_endpoint(url)
        assert format_endpoint(reparsed.scheme, reparsed.addresses,
                               reparsed.shard_names, reparsed.params) == url

    def test_every_scheme_parses(self):
        assert parse_endpoint("sl://127.0.0.1:4870").scheme == "sl"
        assert parse_endpoint("sl+async://h:1").scheme == "sl+async"
        assert parse_endpoint("sl+sharded://a:1,b:2").addresses == (
            ("a", 1), ("b", 2)
        )
        assert parse_endpoint("sl+inproc://").addresses == ()
        assert parse_endpoint("sl+serialized://local").addresses == ()

    def test_shard_names_ride_the_query(self):
        parsed = parse_endpoint("sl+sharded://a:1,b:2?names=east,west")
        assert parsed.shard_names == ("east", "west")

    @pytest.mark.parametrize("endpoint,complaint", [
        ("127.0.0.1:4870", "no scheme"),
        ("http://h:1", "unknown endpoint scheme"),
        ("sl://h:0", "out of range"),
        ("sl://h:65536", "out of range"),
        ("sl://h:-4", "out of range"),
        ("sl://h:abc", "non-numeric port"),
        ("sl://h", "not host:port"),
        ("sl://:4870", "empty host"),
        ("sl://", "names no host:port"),
        ("sl://h:1,g:2", "exactly one host:port"),
        ("sl+async://h:1,g:2", "exactly one host:port"),
        ("sl://h:1?bogus=1", "unknown endpoint parameter"),
        ("sl://h:1?wire=3", "unknown endpoint parameter"),
        ("sl://h:1?naked", "not k=v"),
        ("sl+sharded://a:1,b:2?names=onlyone",
         "one shard name per address"),
        ("sl+inproc://somewhere:1", "names no network authority"),
        ("sl+serialized://somewhere:1", "names no network authority"),
    ])
    def test_malformed_endpoints_rejected_whole(self, endpoint, complaint):
        with pytest.raises(ValueError, match=complaint):
            parse_endpoint(endpoint)

    def test_unparseable_query_value_is_a_typed_complaint(self):
        with pytest.raises(ValueError, match="not a valid float"):
            parse_endpoint("sl://h:1?timeout=soon").apply(EndpointConfig())
        with pytest.raises(ValueError, match="not a valid int"):
            parse_endpoint("sl://h:1?max_attempts=many").apply(
                EndpointConfig()
            )

    def test_endpoint_for_picks_the_canonical_scheme(self):
        assert endpoint_for([("h", 1)]) == "sl://h:1"
        assert endpoint_for([("h", 1)], io="async") == "sl+async://h:1"
        assert endpoint_for([("a", 1), ("b", 2)]) == "sl+sharded://a:1,b:2"
        assert endpoint_for([("a", 1), ("b", 2)], io="async") == \
            "sl+sharded://a:1,b:2?io=async"
        assert endpoint_for([("a", 1)], shard_names=["east"]) == \
            "sl+sharded://a:1?names=east"


# ----------------------------------------------------------------------
# EndpointConfig: the one validation point
# ----------------------------------------------------------------------
class TestEndpointConfig:
    @pytest.mark.parametrize("field,value,complaint", [
        ("max_attempts", 0, "max_attempts"),
        ("reconnect_attempts", 0, "reconnect_attempts"),
        ("timeout_seconds", 0.0, "timeout_seconds"),
        ("timeout_seconds", -1.0, "timeout_seconds"),
        ("backoff_seconds", -0.1, "backoff"),
        ("reconnect_backoff_seconds", -0.1, "backoff"),
        ("io", "fibers", "unknown io backend"),
        ("ring_replicas", 0, "ring_replicas"),
        ("migrate_retries", -1, "migrate_retries"),
        ("replicas", -1, "replicas"),
    ])
    def test_every_knob_validated_at_construction(self, field, value,
                                                  complaint):
        with pytest.raises(ValueError, match=complaint):
            EndpointConfig(**{field: value})

    def test_replace_revalidates(self):
        config = EndpointConfig()
        with pytest.raises(ValueError, match="max_attempts"):
            config.replace(max_attempts=0)

    def test_url_parameters_override_config_and_keywords(self):
        """Precedence: base config < keyword overrides < URL query."""
        base = EndpointConfig(max_attempts=2, timeout_seconds=1.0)
        parsed = parse_endpoint("sl://h:1?max_attempts=7")
        folded = parsed.apply(base.replace(max_attempts=3))
        assert folded.max_attempts == 7  # URL wins
        assert folded.timeout_seconds == 1.0  # untouched knobs survive

    def test_connect_validates_scheme_io_pairing(self):
        with pytest.raises(ValueError, match="threaded client"):
            connect("sl://127.0.0.1:1?io=async")

    def test_loopback_schemes_demand_their_wiring(self):
        with pytest.raises(ValueError, match="pass remote= and link="):
            connect("sl+inproc://")
        with pytest.raises(ValueError, match="apply only to"):
            connect("sl://127.0.0.1:1", remote=object())

