#!/usr/bin/env python
"""Serving: an HI dictionary behind a socket, with nothing added on top.

The network front-end (``repro.net``) hosts engines behind a CRC-framed
binary protocol, and the promise is the same one the structures make on
disk: what you can observe — results, canonical layout digests — is a
pure function of the key set and seed, never of the operation history or
of the wire's own buffering.  This example:

* starts a :class:`~repro.net.ThreadedServer` on a loopback port from a
  plain :class:`~repro.api.EngineConfig`;
* serves two isolated tenants (namespaces) from it;
* sends each bulk operation as one request, which the server routes
  (the client only records the router spec and shard ids that the
  handshake reports);
* shows a server-side failure crossing the wire as its original typed
  exception; and
* proves the wire added nothing: the served store's per-shard HI digests
  equal an identically-built in-process engine's, then drains gracefully.

Run with::

    python examples/networked_store.py
"""

from __future__ import annotations

from repro.api import EngineConfig, make_sharded_engine
from repro.errors import KeyNotFound
from repro.net import ReproClient, ThreadedServer
from repro.net.server import engine_digest


def main() -> None:
    config = EngineConfig(inner="hi-skiplist", shards=3, block_size=32,
                          seed=7, router="consistent")
    with ThreadedServer(config) as server:
        print("serving           : %d x %s on 127.0.0.1:%d"
              % (config.shards, config.inner, server.port))

        with ReproClient("127.0.0.1", server.port,
                         namespace="inventory") as inventory, \
                ReproClient("127.0.0.1", server.port,
                            namespace="sessions") as sessions:
            routing = inventory.routing
            print("router (handshake): %s over shards %s"
                  % (routing.router_spec, routing.shard_ids))

            inventory.insert_many(
                [(sku, sku * 3 % 1000) for sku in range(2_000)])
            sessions.insert_many([(user, "token-%d" % user)
                                  for user in range(40)])
            print("tenants           : inventory=%d keys, sessions=%d keys"
                  % (len(inventory), len(sessions)))

            hits = inventory.contains_many([5, 1999, 2000, 2001])
            print("membership        : %s" % hits)
            inventory.delete_many(list(range(0, 2_000, 2)))
            print("after deletes     : %d keys" % len(inventory))

            try:
                inventory.search(4_242)
            except KeyNotFound as error:
                print("typed error       : KeyNotFound(%s) crossed the wire"
                      % error)

            # The oracle: an engine built in-process from the same config
            # and the same surviving key set must match the served store's
            # canonical per-shard digests exactly.
            twin = make_sharded_engine(config=config)
            try:
                twin.insert_many(
                    [(sku, sku * 3 % 1000) for sku in range(2_000)])
                twin.delete_many(list(range(0, 2_000, 2)))
                wire_digests = inventory.digest()
                assert wire_digests == engine_digest(twin)
                print("HI digests        : served == in-process (%s...)"
                      % wire_digests[0])
            finally:
                twin.close()

        report = server.drain()
        print("drained           : %s" % sorted(report))


if __name__ == "__main__":
    main()
