#!/usr/bin/env python3
"""Smoke test for the spidey-serve daemon.

Starts the daemon over the examples/serve demo program, then drives an
analyze → edit → analyze → stats round-trip over its newline-delimited
JSON protocol and asserts the incremental contract: the first analyze
derives every component, and after editing one file exactly that
component (and nothing else) is rederived.

With --chaos SPEC the daemon runs under the seeded fault-injection
schedule SPEC (see support/faultinject.h). Faults change *which path*
serves each component — cache hit, disk, or re-derivation — so the
exact reuse counts are no longer pinned; chaos mode instead asserts the
fault-tolerance contract: every request (hostile ones included) gets a
structured answer, analysis results stay correct, and after disarming
the faults through the protocol the incremental behavior is intact.

With --clients N the daemon runs multi-tenant on a unix socket and N
concurrent clients drive it: a first client warms the shared store, the
rest analyze the same program concurrently and must each be served
entirely from it (cross-session store hits), with flow/check-summary
answers byte-identical across every client; any client's shutdown then
drains the daemon and unlinks the socket. A second daemon then drains on
SIGTERM with N clients still connected.

Usage: serve_smoke.py path/to/spidey-serve [source dir]
       [--chaos SPEC] [--clients N]
Exit status 0 on success; 1 with a diagnostic on any violation.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def cli_regressions(binary, files):
    """Malformed CLI values must be usage errors (exit 2), not silent
    zeros/disarmed injectors."""
    failures = []
    for argv in ([binary, "--threads", "abc"] + files,
                 [binary, "--deadline-ms", "5x"] + files,
                 [binary, "--max-sessions", "-1"] + files,
                 [binary, "--faults", "no-such-site=1"] + files):
        r = subprocess.run(argv, stdin=subprocess.DEVNULL,
                           capture_output=True, text=True)
        if r.returncode != 2:
            failures.append(f"{' '.join(argv[1:3])!r} must exit 2, "
                            f"got {r.returncode}")
    return failures


class Client:
    """One connection to the multi-tenant daemon; requests get answers
    in order over the socket."""

    def __init__(self, sockpath):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sockpath)
        self.reader = self.sock.makefile("r")

    def request_raw(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise SystemExit("serve_smoke: daemon closed a client stream")
        return line.rstrip("\n")

    def request(self, obj):
        return json.loads(self.request_raw(obj))

    def close(self):
        self.reader.close()
        self.sock.close()


def spawn_socket_daemon(cmdline, sockpath):
    """Starts a socket-mode daemon and waits until it has bound
    sockpath; None (after a diagnostic) if it never does."""
    proc = subprocess.Popen(cmdline)
    deadline = time.monotonic() + 10
    while not os.path.exists(sockpath):
        if time.monotonic() > deadline or proc.poll() is not None:
            print("serve_smoke: daemon never bound its socket",
                  file=sys.stderr)
            if proc.poll() is None:
                proc.kill()
            return None
        time.sleep(0.05)
    return proc


def multi_client_smoke(binary, files, clients):
    """N concurrent clients over one daemon: the shared store serves all
    but the first, answers are byte-identical across clients, and any
    client's shutdown drains the daemon."""
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    sockdir = tempfile.mkdtemp(prefix="spidey-smoke-")
    sockpath = os.path.join(sockdir, "serve.sock")
    proc = spawn_socket_daemon(
        [binary, "--socket", sockpath, "--max-sessions", str(clients + 1)]
        + files, sockpath)
    if proc is None:
        return 1

    # Client 0 warms the shared store with a cold analyze.
    warmup = Client(sockpath)
    cold = warmup.request({"cmd": "analyze"})
    check(cold.get("ok") and cold.get("rederived") == 3,
          f"cold analyze must derive all: {cold}")
    check(cold.get("store_cross_hits") == 0,
          f"first session has nobody to share with: {cold}")

    # N concurrent clients: every component is served from the warm
    # shared store — derived once, reused by every later session.
    answers = [None] * clients

    def drive(idx):
        c = Client(sockpath)
        a = c.request({"cmd": "analyze"})
        check(a.get("ok") and a.get("rederived") == 0
              and a.get("reused") == 3,
              f"client {idx} must be served from the shared store: {a}")
        check(a.get("store_cross_hits", 0) >= 3,
              f"client {idx} hits must be cross-session: {a}")
        answers[idx] = [c.request_raw({"cmd": "flow", "name": "good"}),
                        c.request_raw({"cmd": "check-summary"})]
        c.close()

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for idx in range(1, clients):
        check(answers[idx] == answers[0],
              f"client {idx} answers diverge:"
              f" {answers[idx]} vs {answers[0]}")

    stats = warmup.request({"cmd": "stats"})
    check(stats.get("store_cross_session_hits_total", 0) >= 3 * clients,
          f"daemon-wide cross-session reuse must be visible: {stats}")
    check(stats.get("store_entries") == 3, f"one image per component: {stats}")

    # Any client's shutdown drains the whole daemon: socket unlinked,
    # in-flight connections finished, clean exit.
    bye = warmup.request({"cmd": "shutdown"})
    check(bye.get("ok"), f"shutdown failed: {bye}")
    warmup.close()
    check(proc.wait(timeout=30) == 0, "daemon exited non-zero")
    check(not os.path.exists(sockpath), "socket file must be unlinked")

    # SIGTERM drains as well, with every client still connected: the
    # signal handler raises the flag that each connection thread polls.
    sockpath = os.path.join(sockdir, "drain.sock")
    proc = spawn_socket_daemon([binary, "--socket", sockpath] + files,
                               sockpath)
    if proc is None:
        return 1
    idle = [Client(sockpath) for _ in range(clients)]
    for idx, c in enumerate(idle):
        a = c.request({"cmd": "analyze"})
        check(a.get("ok"), f"client {idx} analyze before SIGTERM: {a}")
    proc.send_signal(signal.SIGTERM)
    check(proc.wait(timeout=30) == 0, "SIGTERM drain exited non-zero")
    check(not os.path.exists(sockpath),
          "SIGTERM drain must unlink the socket file")
    for c in idle:
        c.close()

    if failures:
        for f in failures:
            print(f"serve_smoke: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"serve_smoke: OK multi-tenant ({clients} concurrent clients"
          " served from one shared store, byte-identical answers;"
          " SIGTERM drain with clients connected)")
    return 0


def main():
    args = sys.argv[1:]
    chaos = None
    clients = 0
    if "--chaos" in args:
        at = args.index("--chaos")
        if at + 1 >= len(args):
            print("serve_smoke: --chaos needs a fault spec", file=sys.stderr)
            return 2
        chaos = args[at + 1]
        del args[at:at + 2]
    if "--clients" in args:
        at = args.index("--clients")
        if at + 1 >= len(args):
            print("serve_smoke: --clients needs a count", file=sys.stderr)
            return 2
        clients = int(args[at + 1])
        del args[at:at + 2]
    if len(args) < 1:
        print("usage: serve_smoke.py path/to/spidey-serve [source dir]"
              " [--chaos SPEC] [--clients N]", file=sys.stderr)
        return 2
    # A schedule in the environment reaches the daemon on its own; the
    # script just has to know to apply the chaos-mode assertions.
    via_env = False
    if chaos is None and os.environ.get("SPIDEY_FAULTS"):
        chaos = os.environ["SPIDEY_FAULTS"]
        via_env = True
    binary = args[0]
    srcdir = args[1] if len(args) > 1 else os.path.join(
        os.path.dirname(__file__), "..", "examples", "serve")
    files = [os.path.join(srcdir, name)
             for name in ("list.ss", "data.ss", "main.ss")]
    for path in files:
        if not os.path.exists(path):
            print(f"serve_smoke: missing source file {path}",
                  file=sys.stderr)
            return 1

    cli_failures = cli_regressions(binary, files)
    if cli_failures:
        for f in cli_failures:
            print(f"serve_smoke: FAIL: {f}", file=sys.stderr)
        return 1

    if clients:
        return multi_client_smoke(binary, files, clients)

    cmdline = [binary] + files
    if chaos:
        # Threads=1 keeps the injector's draw stream — and therefore the
        # whole fault schedule — deterministic for a given spec.
        cmdline += ["--threads", "1"]
        if not via_env:
            cmdline += ["--faults", chaos]
    proc = subprocess.Popen(cmdline, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)

    def request(obj):
        proc.stdin.write(json.dumps(obj) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise SystemExit("serve_smoke: daemon closed the stream")
        return json.loads(line)

    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # Cold analyze: every component derived, none reused. Under chaos the
    # reuse split depends on the fault schedule; only ok-ness and the
    # component count are pinned.
    cold = request({"cmd": "analyze"})
    check(cold.get("ok"), f"cold analyze failed: {cold}")
    check(cold.get("components") == 3, f"expected 3 components: {cold}")
    if not chaos:
        check(cold.get("rederived") == 3, f"cold run must derive all: {cold}")
        check(cold.get("reused") == 0, f"cold run must reuse none: {cold}")

    # Edit main.ss, keeping its foreign references so the other
    # components' interfaces are untouched.
    main_path = files[2]
    with open(main_path) as f:
        edited_text = f.read() + '(define smoke-probe "edited")\n'
    edit = request({"cmd": "edit", "file": main_path, "text": edited_text})
    check(edit.get("ok"), f"edit failed: {edit}")

    # Warm analyze: only the edited component is rederived. A fault
    # schedule may turn store hits into re-derivations, so chaos mode
    # only demands success here — correctness is asserted below.
    warm = request({"cmd": "analyze"})
    check(warm.get("ok"), f"warm analyze failed: {warm}")
    if not chaos:
        check(warm.get("rederived") == 1,
              f"warm run must rederive exactly the edited component: {warm}")
        check(warm.get("reused") == 2, f"warm run must reuse the rest: {warm}")
        per = {c["name"]: c["cache"] for c in warm.get("per_component", [])}
        # The store is content-addressed: the edited component's new
        # source hash forms a new key, so its probe misses outright.
        check(per.get(main_path) == "miss-no-entry",
              f"edited component must miss under its new hash: {per}")
        check(all(outcome == "hit" for name, outcome in per.items()
                  if name != main_path),
              f"untouched components must hit the store: {per}")

    if chaos:
        # Hostile lines mid-stream: each gets a structured refusal and
        # the daemon keeps serving.
        for bad in ("definitely not json", "[1,2,3]", '{"cmd":42}',
                    '{"cmd":"no-such"}'):
            proc.stdin.write(bad + "\n")
            proc.stdin.flush()
            resp = json.loads(proc.stdout.readline())
            check(resp.get("ok") is False and resp.get("code"),
                  f"hostile line {bad!r} must get a structured error: {resp}")

    # The flow browser and check summary answer over the warm state.
    flow = request({"cmd": "flow", "name": "good"})
    check(flow.get("ok") and flow.get("kinds") == ["pair"],
          f"flow(good) must see a pair: {flow}")
    checks = request({"cmd": "check-summary"})
    check(checks.get("ok") and checks.get("unsafe") == 1,
          f"expected exactly one unsafe check: {checks}")

    # Stats reflect both passes and the store contents.
    stats = request({"cmd": "stats"})
    if chaos:
        check(stats.get("ok"), f"stats failed: {stats}")
        check(stats.get("internal_errors") == 0,
              f"the exception barrier must never fire: {stats}")
        # Disarm injection through the protocol; the incremental contract
        # must be fully restored for a fresh edit.
        conf = request({"cmd": "configure", "faults": ""})
        check(conf.get("ok") and conf.get("faults_enabled") is False,
              f"disarming faults failed: {conf}")
        # One fault-free pass refills whatever the schedule knocked out of
        # the store (dropped writes, wipes) ...
        edit2 = request({"cmd": "edit", "file": main_path,
                         "text": edited_text + '(define probe-2 "calm")\n'})
        check(edit2.get("ok"), f"post-chaos edit failed: {edit2}")
        refill = request({"cmd": "analyze"})
        check(refill.get("ok"), f"post-chaos analyze failed: {refill}")
        # ... after which the incremental contract is fully restored.
        edit3 = request({"cmd": "edit", "file": main_path,
                         "text": edited_text + '(define probe-3 "calm")\n'})
        check(edit3.get("ok"), f"post-chaos edit failed: {edit3}")
        calm = request({"cmd": "analyze"})
        check(calm.get("ok") and calm.get("rederived") == 1
              and calm.get("reused") == 2,
              f"incremental contract must hold once faults stop: {calm}")
    else:
        check(stats.get("analyzes") == 2, f"expected 2 analyzes: {stats}")
        check(stats.get("edits") == 1, f"expected 1 edit: {stats}")
        check(stats.get("components_rederived") == 4,
              f"expected 3 cold + 1 warm rederivations: {stats}")
        check(stats.get("components_reused") == 2,
              f"expected 2 reuses: {stats}")
        # 4 entries under content-addressed keys: the edited component's
        # pre-edit image lingers under its old hash until LRU eviction.
        check(stats.get("store_entries") == 4,
              f"expected 4 entries: {stats}")

    bye = request({"cmd": "shutdown"})
    check(bye.get("ok"), f"shutdown failed: {bye}")
    proc.stdin.close()
    check(proc.wait(timeout=30) == 0, "daemon exited non-zero")

    if failures:
        for f in failures:
            print(f"serve_smoke: FAIL: {f}", file=sys.stderr)
        return 1
    if chaos:
        print(f"serve_smoke: OK under chaos schedule '{chaos}'"
              " (correct results, structured errors, clean recovery)")
    else:
        print("serve_smoke: OK (cold=3 derived, warm=1 rederived/2 reused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
