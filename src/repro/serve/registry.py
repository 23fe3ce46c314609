"""Versioned on-disk registry for fitted TwoStage predictors.

Artifact layout (one directory per version)::

    <root>/<name>/v0001/predictor.pkl   # pickled fitted predictor
    <root>/<name>/v0001/manifest.json   # commit record, written last

The manifest is the commit point: it carries the SHA-256 checksum of the
payload, the declared feature schema, and caller metadata (training
window, split, seed, ...).  Payload and manifest are both written with
the atomic temp-then-rename helpers from :mod:`repro.utils.io` — the
same hardened-IO discipline as the trace archive — so a crashed writer
can never leave a version that :meth:`ModelRegistry.load_model` would
silently accept: a directory without a valid manifest is simply not a
version.

A per-name ``HEAD.json`` records which committed version is *serving*.
``save_model`` advances it; :meth:`ModelRegistry.rollback` re-points it
at a prior version after a single-version checksum audit (the
``registry rollback`` CLI and the serve-side retrain governor share
this one code path).  ``latest()`` honors a valid head and falls back
to the highest committed version — with a
:class:`~repro.utils.errors.DegradedDataWarning` — when the head is
missing, unreadable, or points at a version that no longer verifies as
committed, so legacy registries without a head keep working unchanged.

Every failure mode (missing version, corrupt payload, unsupported
format, schema mismatch) raises
:class:`~repro.utils.errors.ModelRegistryError`.
"""

from __future__ import annotations

import json
import pickle
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core.twostage import TwoStagePredictor
from repro.utils.errors import DegradedDataWarning, ModelRegistryError
from repro.utils.io import atomic_write_bytes, atomic_write_json, sha256_bytes

__all__ = [
    "ARTIFACT_FORMAT",
    "ModelVersion",
    "ModelRegistry",
]

#: On-disk artifact format; bump when the payload layout changes.
ARTIFACT_FORMAT = 1

_PAYLOAD_FILE = "predictor.pkl"
_MANIFEST_FILE = "manifest.json"
_HEAD_FILE = "HEAD.json"
_VERSION_RE = re.compile(r"^v(\d{4,})$")


@dataclass(frozen=True)
class ModelVersion:
    """One committed registry entry (manifest already parsed)."""

    name: str
    version: int
    path: Path
    manifest: dict

    @property
    def model_name(self) -> str:
        """Stage-2 model name recorded at save time."""
        return self.manifest["model_name"]

    @property
    def feature_names(self) -> list[str]:
        """Stage-2 input column names recorded at save time."""
        return list(self.manifest["feature_names"])

    @property
    def metadata(self) -> dict:
        """Caller-supplied training metadata."""
        return dict(self.manifest.get("metadata", {}))


class ModelRegistry:
    """Save / load / enumerate versioned TwoStage artifacts under a root."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def list_versions(self, name: str = "twostage") -> list[ModelVersion]:
        """Committed versions of ``name``, oldest first.

        Version directories must never be assumed complete: a crashed
        writer leaves a directory without a manifest, a torn copy leaves
        a manifest without its payload.  Both are skipped with a
        :class:`~repro.utils.errors.DegradedDataWarning` (they are
        in-flight writers or crash debris, never load candidates) so the
        caller learns the registry is degraded without the enumeration
        itself failing.
        """
        name_dir = self.root / name
        if not name_dir.is_dir():
            return []
        versions = []
        for child in sorted(name_dir.iterdir()):
            match = _VERSION_RE.match(child.name)
            if not match:
                continue
            manifest = self._read_manifest(child, strict=False)
            if manifest is None:
                warnings.warn(
                    f"skipping uncommitted registry version {name}/{child.name} "
                    f"(missing or unreadable manifest)",
                    DegradedDataWarning,
                    stacklevel=2,
                )
                continue
            payload = child / manifest.get("payload", _PAYLOAD_FILE)
            if not payload.is_file():
                warnings.warn(
                    f"skipping registry version {name}/{child.name} "
                    f"(manifest committed but payload missing)",
                    DegradedDataWarning,
                    stacklevel=2,
                )
                continue
            versions.append(
                ModelVersion(
                    name=name,
                    version=int(match.group(1)),
                    path=child,
                    manifest=manifest,
                )
            )
        versions.sort(key=lambda v: v.version)
        return versions

    def verify(self, name: str = "twostage") -> list[tuple[int, str]]:
        """Checksum-audit every version directory of ``name``.

        Returns ``(version, status)`` pairs, oldest first, where status
        is ``"ok"``, ``"bad-manifest"``, ``"missing-payload"``,
        ``"corrupt-payload"`` (checksum mismatch), or
        ``"bad-format"``.  Unlike :meth:`list_versions` this reads and
        hashes every payload, and reports broken directories instead of
        skipping them — it is the ``registry verify`` CLI audit.
        """
        name_dir = self.root / name
        if not name_dir.is_dir():
            raise ModelRegistryError(
                f"model {name!r} has no registry directory", path=name_dir
            )
        statuses: list[tuple[int, str]] = []
        for child in sorted(name_dir.iterdir()):
            match = _VERSION_RE.match(child.name)
            if not match:
                continue
            version = int(match.group(1))
            manifest = self._read_manifest(child, strict=False)
            if manifest is None:
                statuses.append((version, "bad-manifest"))
                continue
            if manifest.get("format") != ARTIFACT_FORMAT:
                statuses.append((version, "bad-format"))
                continue
            payload = child / manifest.get("payload", _PAYLOAD_FILE)
            try:
                data = payload.read_bytes()
            except OSError:
                statuses.append((version, "missing-payload"))
                continue
            if sha256_bytes(data) != manifest.get("checksum"):
                statuses.append((version, "corrupt-payload"))
                continue
            statuses.append((version, "ok"))
        statuses.sort(key=lambda pair: pair[0])
        return statuses

    def latest(self, name: str = "twostage") -> ModelVersion:
        """The *serving* version of ``name``.

        This is the head-pointer target when ``HEAD.json`` exists and
        points at a committed version (so a rollback sticks), otherwise
        the most recent committed version.  A head that is unreadable or
        dangling is reported with a
        :class:`~repro.utils.errors.DegradedDataWarning` and ignored —
        a stale pointer must degrade, never brick, the registry.
        """
        versions = self.list_versions(name)
        if not versions:
            raise ModelRegistryError(
                f"model {name!r} has no committed versions", path=self.root / name
            )
        head = self.head_version(name)
        if head is not None:
            by_version = {entry.version: entry for entry in versions}
            if head in by_version:
                return by_version[head]
            warnings.warn(
                f"registry head of {name!r} points at uncommitted version "
                f"v{head:04d}; falling back to newest committed version",
                DegradedDataWarning,
                stacklevel=2,
            )
        return versions[-1]

    def head_version(self, name: str = "twostage") -> int | None:
        """The head-pointer target, or ``None`` (absent/unreadable head)."""
        head_path = self.root / name / _HEAD_FILE
        try:
            raw = json.loads(head_path.read_text())
            return int(raw["version"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, TypeError, KeyError):
            warnings.warn(
                f"registry head of {name!r} is unreadable; "
                f"falling back to newest committed version",
                DegradedDataWarning,
                stacklevel=2,
            )
            return None

    def verify_version(self, name: str, version: int) -> str:
        """Audit one version directory; same statuses as :meth:`verify`.

        Returns ``"missing"`` when the directory does not exist at all.
        """
        version_dir = self.root / name / f"v{int(version):04d}"
        if not version_dir.is_dir():
            return "missing"
        manifest = self._read_manifest(version_dir, strict=False)
        if manifest is None:
            return "bad-manifest"
        if manifest.get("format") != ARTIFACT_FORMAT:
            return "bad-format"
        payload = version_dir / manifest.get("payload", _PAYLOAD_FILE)
        try:
            data = payload.read_bytes()
        except OSError:
            return "missing-payload"
        if sha256_bytes(data) != manifest.get("checksum"):
            return "corrupt-payload"
        return "ok"

    def rollback(self, name: str, version: int) -> ModelVersion:
        """Atomically re-point the registry head at ``version``.

        The target is checksum-audited first (:meth:`verify_version`);
        a corrupt or missing target raises a one-line
        :class:`~repro.utils.errors.ModelRegistryError` and leaves the
        head untouched.  The serve-side retrain governor and the
        ``registry rollback`` CLI both come through here.
        """
        status = self.verify_version(name, version)
        if status != "ok":
            raise ModelRegistryError(
                f"refusing rollback of {name!r} to v{int(version):04d}: "
                f"target is {status}",
                path=self.root / name / f"v{int(version):04d}",
            )
        self._write_head(name, int(version))
        return self._resolve(name, int(version))

    def _write_head(self, name: str, version: int) -> None:
        atomic_write_json(
            self.root / name / _HEAD_FILE, {"version": int(version)}
        )

    # ------------------------------------------------------------------
    def save_model(
        self,
        predictor: TwoStagePredictor,
        *,
        name: str = "twostage",
        metadata: dict | None = None,
    ) -> ModelVersion:
        """Persist a fitted predictor as the next version of ``name``.

        Raises :class:`~repro.utils.errors.NotFittedError` for an
        unfitted predictor (there is nothing meaningful to serialize).
        """
        feature_names = predictor.feature_names  # raises NotFittedError
        offenders = predictor.offender_nodes
        payload = pickle.dumps(
            {"format": ARTIFACT_FORMAT, "predictor": predictor},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        version = self._next_version(name)
        version_dir = self.root / name / f"v{version:04d}"
        version_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(version_dir / _PAYLOAD_FILE, payload)
        manifest = {
            "format": ARTIFACT_FORMAT,
            "name": name,
            "version": version,
            "model_name": predictor.model_name,
            "n_features": len(feature_names),
            "feature_names": list(feature_names),
            "num_offender_nodes": int(offenders.size),
            "payload": _PAYLOAD_FILE,
            "checksum": sha256_bytes(payload),
            "metadata": metadata or {},
        }
        atomic_write_json(version_dir / _MANIFEST_FILE, manifest)
        # A fresh save is the new serving version: advance the head so a
        # prior rollback does not pin future saves to the old model.
        self._write_head(name, version)
        return ModelVersion(
            name=name, version=version, path=version_dir, manifest=manifest
        )

    def load_model(
        self,
        name: str = "twostage",
        version: int | None = None,
        *,
        expect_feature_names: list[str] | None = None,
    ) -> tuple[TwoStagePredictor, ModelVersion]:
        """Load a committed version (latest when ``version is None``).

        The payload checksum is always verified, the artifact's declared
        schema is cross-checked against the unpickled predictor, and —
        when ``expect_feature_names`` is given — against the feature
        schema the caller is about to serve.  Any mismatch raises
        :class:`~repro.utils.errors.ModelRegistryError`.
        """
        entry = self._resolve(name, version)
        payload_path = entry.path / entry.manifest.get("payload", _PAYLOAD_FILE)
        if entry.manifest.get("format") != ARTIFACT_FORMAT:
            raise ModelRegistryError(
                f"unsupported artifact format {entry.manifest.get('format')!r} "
                f"(this build reads format {ARTIFACT_FORMAT})",
                path=entry.path,
            )
        try:
            payload = payload_path.read_bytes()
        except OSError as exc:
            raise ModelRegistryError(
                f"unreadable artifact payload: {exc}", path=payload_path
            ) from exc
        expected = entry.manifest.get("checksum")
        actual = sha256_bytes(payload)
        if actual != expected:
            raise ModelRegistryError(
                f"artifact payload checksum mismatch (expected "
                f"{str(expected)[:12]}..., got {actual[:12]}...)",
                path=payload_path,
            )
        try:
            obj = pickle.loads(payload)
        except Exception as exc:
            raise ModelRegistryError(
                f"artifact payload does not unpickle: {exc}", path=payload_path
            ) from exc
        predictor = obj.get("predictor") if isinstance(obj, dict) else None
        if not isinstance(predictor, TwoStagePredictor):
            raise ModelRegistryError(
                "artifact payload is not a TwoStagePredictor", path=payload_path
            )
        if list(predictor.feature_names) != entry.feature_names:
            raise ModelRegistryError(
                "artifact is internally inconsistent: manifest and predictor "
                "disagree on the feature schema",
                path=entry.path,
            )
        if expect_feature_names is not None and list(expect_feature_names) != (
            entry.feature_names
        ):
            raise ModelRegistryError(
                f"schema-incompatible artifact: it serves "
                f"{len(entry.feature_names)} features, the caller expects "
                f"{len(list(expect_feature_names))} "
                f"(first difference: {_first_difference(entry.feature_names, list(expect_feature_names))})",
                path=entry.path,
            )
        return predictor, entry

    # ------------------------------------------------------------------
    def _resolve(self, name: str, version: int | None) -> ModelVersion:
        if version is None:
            return self.latest(name)
        version_dir = self.root / name / f"v{int(version):04d}"
        if not version_dir.is_dir():
            raise ModelRegistryError(
                f"model {name!r} has no version {version}", path=version_dir
            )
        manifest = self._read_manifest(version_dir, strict=True)
        return ModelVersion(
            name=name, version=int(version), path=version_dir, manifest=manifest
        )

    def _next_version(self, name: str) -> int:
        name_dir = self.root / name
        if not name_dir.is_dir():
            return 1
        taken = [
            int(match.group(1))
            for child in name_dir.iterdir()
            if (match := _VERSION_RE.match(child.name))
        ]
        return max(taken, default=0) + 1

    @staticmethod
    def _read_manifest(version_dir: Path, *, strict: bool) -> dict | None:
        manifest_path = version_dir / _MANIFEST_FILE
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            if strict:
                raise ModelRegistryError(
                    f"unreadable artifact manifest: {exc}", path=manifest_path
                ) from exc
            return None
        if not isinstance(manifest, dict) or "feature_names" not in manifest:
            if strict:
                raise ModelRegistryError(
                    "artifact manifest lacks a feature schema", path=manifest_path
                )
            return None
        return manifest


def _first_difference(a: list[str], b: list[str]) -> str:
    """Human-readable first point of divergence between two name lists."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"column {i}: {x!r} != {y!r}"
    return f"length {len(a)} != {len(b)}"
