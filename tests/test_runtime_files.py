"""Tests for the real-socket file-transfer session protocol and CLI."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import FobsConfig
from repro.runtime.files import LoopbackReceiver, send_file

pytestmark = pytest.mark.loopback


def make_file(tmp_path, nbytes, seed=0):
    data = np.random.default_rng(seed).integers(0, 256, nbytes,
                                                dtype=np.uint8).tobytes()
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path, data


def run_pair(tmp_path, nbytes, config=None, seed=0):
    src, data = make_file(tmp_path, nbytes, seed)
    out = tmp_path / "out.bin"
    with LoopbackReceiver(str(out), timeout=60.0) as rx:
        send = send_file(str(src), "127.0.0.1", rx.port, config=config,
                         timeout=60.0)
    return data, out, {"send": send, "recv": rx.result}


class TestFileTransfer:
    def test_roundtrip_byte_exact(self, tmp_path):
        data, out, result = run_pair(tmp_path, 300_000)
        assert out.read_bytes() == data
        assert result["recv"].crc_ok
        assert result["send"].nbytes == 300_000

    def test_small_file(self, tmp_path):
        data, out, result = run_pair(tmp_path, 100)
        assert out.read_bytes() == data

    def test_odd_size_with_custom_packet(self, tmp_path):
        config = FobsConfig(packet_size=4096, ack_frequency=8)
        data, out, result = run_pair(tmp_path, 123_457, config=config)
        assert out.read_bytes() == data

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            send_file(str(empty), "127.0.0.1", 0)

    def test_send_rate_paces_the_blast(self, tmp_path):
        """``FobsConfig.send_rate_bps`` bounds the sender's wire rate."""
        nbytes, rate = 100_000, 4e6
        config = FobsConfig(ack_frequency=32, send_rate_bps=rate)
        data, out, result = run_pair(tmp_path, nbytes, config=config)
        assert out.read_bytes() == data
        assert result["send"].duration >= 0.8 * 8 * nbytes / rate

    def test_throughput_reported(self, tmp_path):
        _, _, result = run_pair(tmp_path, 200_000)
        assert result["send"].throughput_bps > 0
        assert result["recv"].duration > 0


class TestResumableFileTransfer:
    def run_resumable(self, tmp_path, kill_plan=None, nbytes=300_000):
        from repro.runtime.supervisor import RetryPolicy

        src, data = make_file(tmp_path, nbytes, seed=7)
        out = tmp_path / "out.bin"
        config = FobsConfig(ack_frequency=32, stall_timeout=0.1,
                            stall_abort_after=0.5, receiver_idle_timeout=1.5)
        with LoopbackReceiver(str(out), timeout=60.0, max_attempts=3,
                              config=config) as rx:
            send = send_file(
                str(src), "127.0.0.1", rx.port, config=config, timeout=60.0,
                max_attempts=3, kill_plan=kill_plan,
                policy=RetryPolicy(max_attempts=3, backoff_base=0.05,
                                   jitter=0.0))
        return data, out, {"send": send, "recv": rx.result}

    def test_clean_resumable_session(self, tmp_path):
        data, out, result = self.run_resumable(tmp_path)
        assert out.read_bytes() == data
        assert result["send"].completed and result["send"].attempts == 1
        assert result["recv"].crc_ok and result["recv"].attempts == 1
        assert not (tmp_path / "out.bin.journal").exists()
        assert not (tmp_path / "out.bin.part").exists()

    def test_sender_crash_resumes_via_real_resume_handshake(self, tmp_path):
        """Kill the sender mid-blast; retry resumes from the journal."""
        from repro.simnet.faults import KillSwitch

        kill_plan = {0: KillSwitch(target="sender", after_packets=100)}
        data, out, result = self.run_resumable(tmp_path, kill_plan=kill_plan)
        send, recv = result["send"], result["recv"]
        assert out.read_bytes() == data
        assert send.completed and send.attempts == 2
        assert recv.crc_ok and recv.attempts == 2
        # The RESUME bitmap crossed the TCP control channel: both ends
        # agree on how much the journal salvaged.
        assert send.resumed_packets > 0
        assert send.resumed_packets == recv.resumed_packets
        # Cleaned up after success.
        assert not (tmp_path / "out.bin.journal").exists()
        assert not (tmp_path / "out.bin.part").exists()

    def test_exhausted_attempts_reports_failure(self, tmp_path):
        """Every attempt killed: both sides return completed=False."""
        from repro.simnet.faults import KillSwitch

        kill_plan = {a: KillSwitch(target="sender", after_packets=50)
                     for a in range(3)}
        src, data = make_file(tmp_path, 200_000, seed=8)
        out = tmp_path / "dead.bin"
        config = FobsConfig(ack_frequency=32, stall_timeout=0.1,
                            stall_abort_after=0.5, receiver_idle_timeout=1.0)
        from repro.runtime.supervisor import RetryPolicy

        with LoopbackReceiver(str(out), timeout=15.0, max_attempts=3,
                              config=config) as rx:
            send = send_file(str(src), "127.0.0.1", rx.port, config=config,
                             timeout=15.0, max_attempts=3,
                             kill_plan=kill_plan,
                             policy=RetryPolicy(max_attempts=3,
                                                backoff_base=0.05,
                                                jitter=0.0))
        assert not send.completed
        assert send.attempts == 3
        assert "killed by crash injection" in send.failure_reason
        assert not out.exists()
        # The journal survives a failed session for a later resume.
        assert (tmp_path / "dead.bin.journal").exists()


class TestCliProcesses:
    def test_two_process_transfer(self, tmp_path):
        """End-to-end: receiver and sender as separate OS processes."""
        src, data = make_file(tmp_path, 200_000, seed=3)
        out = tmp_path / "cli_out.bin"
        recv_proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.cli", "recv",
             "--port", "0", "--output", str(out), "--bind", "127.0.0.1",
             "--timeout", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # The receiver reports the port the kernel picked once its
            # listener is up.
            banner = ""
            while not banner.startswith("listening on 127.0.0.1:"):
                banner = recv_proc.stderr.readline()
                assert banner, "receiver exited before listening"
            port = banner.rsplit(":", 1)[1].strip()
            send = subprocess.run(
                [sys.executable, "-m", "repro.runtime.cli", "send",
                 str(src), "--host", "127.0.0.1", "--port", port,
                 "--timeout", "60"],
                capture_output=True, text=True, timeout=90,
            )
            assert send.returncode == 0, send.stderr
            assert "send ok" in send.stdout
            assert "throughput_mbps=" in send.stdout
            stdout, stderr = recv_proc.communicate(timeout=30)
            assert recv_proc.returncode == 0, stderr
            assert "crc=ok" in stdout
            assert out.read_bytes() == data
        finally:
            if recv_proc.poll() is None:
                recv_proc.kill()
