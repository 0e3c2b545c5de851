"""Run manifests: enough recorded state to reproduce any deterministic run."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Optional

TOOL_VERSION = "0.1.0"


def timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """command is a run's argv, config every option of its command as the
    run used it, and input_hashes the SHA-256 of every file it read."""

    command: list
    config: dict
    input_hashes: dict
    seed: Optional[int] = None
    tool_version: str = TOOL_VERSION
    started: str = ""
    finished: str = ""

    def __post_init__(self):
        if not (isinstance(self.command, list) and all(isinstance(a, str) for a in self.command)):
            raise TypeError("command must be a list of strings")
        if not (isinstance(self.config, dict) and isinstance(self.input_hashes, dict)):
            raise TypeError("config and input_hashes must be JSON objects")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            return RunManifest(**json.load(fh))

    def verify_inputs(self) -> list:
        """Paths whose current hash no longer matches the recorded one."""
        stale = []
        for path, digest in self.input_hashes.items():
            try:
                if sha256_file(path) != digest:
                    stale.append(path)
            except OSError:
                stale.append(path)
        return stale
