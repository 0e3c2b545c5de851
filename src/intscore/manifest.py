"""Run manifests: enough recorded state to reproduce any deterministic run."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
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
    command: list
    config: dict
    input_hashes: dict
    seed: Optional[int]
    tool_version: str = TOOL_VERSION
    started: str = ""
    finished: str = ""

    @staticmethod
    def begin(command, config, inputs, started, seed=None) -> "RunManifest":
        return RunManifest(
            command=list(command),
            config=dict(config),
            input_hashes={str(p): sha256_file(p) for p in inputs},
            seed=seed,
            started=started,
        )

    def finish(self) -> "RunManifest":
        self.finished = timestamp()
        return self

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "config": self.config,
            "input_hashes": self.input_hashes,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @staticmethod
    def read(path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return RunManifest(doc["command"], doc["config"], doc["input_hashes"],
                           doc.get("seed"), doc.get("tool_version", ""),
                           doc.get("started", ""), doc.get("finished", ""))

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
