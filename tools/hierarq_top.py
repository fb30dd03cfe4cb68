#!/usr/bin/env python3
"""Live fleet view for a running hierarq_server — `top` for queries.

Polls the server's kStatusRequest and kMetricsRequest frames (JSON
format) over a plain TCP socket — no dependencies beyond the standard
library — and renders a one-screen summary every interval: uptime, queue
depth and oldest-job age, active connections, request/error RATES
(deltas between polls, not lifetime totals), per-frame-type traffic, and
the latency quantiles the server estimates from its log-2 histograms
(server.query_ns p50/p90/p99).

Usage:
  tools/hierarq_top.py HOST:PORT [--interval=SECONDS] [--once]

`--once` prints a single snapshot (no rates) and exits — CI smoke-tests
the endpoint with it.

Wire framing (must match src/hierarq/net/wire.h):
  u32 payload_len | u8 type | u8 format | u16 flags | u64 request_id  (LE)
All 64-bit integers in the JSON payloads arrive as decimal strings
(doubles round past 2^53); this tool is one of the consumers that
contract exists for. Error frames are always native: u32 status code |
u32 length | message bytes. An error frame with request id 0 concerns
the connection itself (e.g. the server's connection cap refused it) and
is the answer to whatever was asked.
"""

import argparse
import json
import socket
import struct
import sys
import time

HEADER = struct.Struct("<IBBHQ")
ERROR_HEAD = struct.Struct("<II")

# FrameType values from net/wire.h.
METRICS_REQUEST = 6
METRICS_RESPONSE = 7
STATUS_REQUEST = 11
STATUS_RESPONSE = 12
ERROR_FRAME = 3

FORMAT_JSON = 1

MAX_PAYLOAD = 16 << 20


class WireError(RuntimeError):
    pass


def read_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise WireError("server closed the connection")
        buf += chunk
    return buf


def round_trip(sock, frame_type, request_id):
    sock.sendall(HEADER.pack(0, frame_type, FORMAT_JSON, 0, request_id))
    while True:
        length, rtype, _fmt, _flags, rid = HEADER.unpack(
            read_exact(sock, HEADER.size))
        if length > MAX_PAYLOAD:
            raise WireError("oversized frame (%d bytes)" % length)
        payload = read_exact(sock, length)
        if rtype == ERROR_FRAME and rid in (0, request_id):
            code, length = ERROR_HEAD.unpack_from(payload)
            raise WireError("server error (status code %d): %s" % (
                code, payload[ERROR_HEAD.size:][:length].decode(
                    "utf-8", "replace")))
        if rid != request_id:
            continue  # Stale response from an earlier (timed-out) poll.
        return rtype, payload


def u64(value):
    """Decodes the wire's decimal-string 64-bit integers."""
    return int(value)


def fetch(sock, request_id):
    rtype, payload = round_trip(sock, STATUS_REQUEST, request_id)
    if rtype != STATUS_RESPONSE:
        raise WireError("unexpected frame type %d for status" % rtype)
    status = json.loads(payload)
    rtype, payload = round_trip(sock, METRICS_REQUEST, request_id + 1)
    if rtype != METRICS_RESPONSE:
        raise WireError("unexpected frame type %d for metrics" % rtype)
    metrics = json.loads(payload)
    return status, metrics


def frame_counters(metrics):
    counters = metrics.get("server", {}).get("counters", {})
    return {
        name.split(".")[-1]: u64(value)
        for name, value in sorted(counters.items())
        if name.startswith("server.frames.") or name == "server.error_frames"
    }


def fmt_ns(ns):
    ns = float(ns)
    if ns >= 1e9:
        return "%.2fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.2fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%.0fns" % ns


def render(status, metrics, prev, elapsed):
    lines = []
    uptime = "%.1fs" % (u64(status["uptime_ns"]) / 1e9)
    lines.append(
        "uptime %-10s queue %-4d oldest-job %-10s connections %d" % (
            uptime, u64(status["queue_depth"]),
            fmt_ns(u64(status["oldest_job_age_ns"])),
            u64(status["active_connections"])))

    requests = u64(status["requests_total"])
    errors = u64(status["errors_total"])
    if prev is not None and elapsed > 0:
        prev_status, _prev_metrics = prev
        qps = (requests - u64(prev_status["requests_total"])) / elapsed
        eps = (errors - u64(prev_status["errors_total"])) / elapsed
        lines.append("requests %-12d (%.1f/s)    errors %-8d (%.1f/s)" % (
            requests, qps, errors, eps))
    else:
        lines.append("requests %-12d errors %d" % (requests, errors))

    frames = frame_counters(metrics)
    if frames:
        lines.append("frames   " + "  ".join(
            "%s=%d" % (kind, count) for kind, count in sorted(
                frames.items())))

    histograms = metrics.get("server", {}).get("histograms", {})
    query_ns = histograms.get("server.query_ns")
    if query_ns and u64(query_ns["count"]) > 0:
        lines.append(
            "latency  count=%d p50=%s p90=%s p99=%s" % (
                u64(query_ns["count"]), fmt_ns(query_ns["p50"]),
                fmt_ns(query_ns["p90"]), fmt_ns(query_ns["p99"])))

    for error in status.get("recent_errors", [])[-3:]:
        lines.append("recent_error %s" % error)
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(
        description="live fleet view for a hierarq_server")
    parser.add_argument("address", help="HOST:PORT of the server")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between polls (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (CI smoke test)")
    args = parser.parse_args()

    host, _, port = args.address.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port)
    except ValueError:
        parser.error("bad address %r (want HOST:PORT)" % args.address)

    try:
        sock = socket.create_connection((host, port), timeout=10)
    except OSError as error:
        print("error: cannot connect to %s:%d: %s" % (host, port, error),
              file=sys.stderr)
        return 1

    prev = None
    prev_time = None
    request_id = 1
    with sock:
        while True:
            try:
                status, metrics = fetch(sock, request_id)
            except (WireError, OSError, ValueError, KeyError,
                    struct.error) as error:
                print("error: %s" % error, file=sys.stderr)
                return 1
            request_id += 2
            now = time.monotonic()
            elapsed = (now - prev_time) if prev_time is not None else 0.0
            if not args.once:
                print("\x1b[2J\x1b[H", end="")  # Clear between frames.
            print(render(status, metrics, prev, elapsed), flush=True)
            if args.once:
                return 0
            prev = (status, metrics)
            prev_time = now
            time.sleep(args.interval)


if __name__ == "__main__":
    sys.exit(main())
