"""Trajectory datasets: containers, splits, persistence.

A :class:`TrajectoryDataset` bundles a network with a trip corpus and
provides the train/validation/test split used by every experiment.
Splitting is *by trip* with a fixed seed, so all models in a comparison
see identical data.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path as FilePath

from repro.errors import DataError, SerializationError
from repro.graph.io import network_from_dict, network_to_dict
from repro.graph.network import RoadNetwork
from repro.graph.path import Path
from repro.rng import RngLike, make_rng
from repro.trajectories.generator import Trip

__all__ = ["TrajectoryDataset", "DatasetSplit"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetSplit:
    """Train/validation/test partition of a dataset's trips."""

    train: tuple[Trip, ...]
    validation: tuple[Trip, ...]
    test: tuple[Trip, ...]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train), len(self.validation), len(self.test))


class TrajectoryDataset:
    """A trip corpus over one road network."""

    def __init__(self, network: RoadNetwork, trips: Sequence[Trip]) -> None:
        if not trips:
            raise DataError("a trajectory dataset needs at least one trip")
        for trip in trips:
            if trip.path.network is not network:
                raise DataError(
                    f"trip {trip.trip_id} belongs to a different network"
                )
        self.network = network
        self.trips = tuple(trips)

    def __len__(self) -> int:
        return len(self.trips)

    def __iter__(self) -> Iterator[Trip]:
        return iter(self.trips)

    def __getitem__(self, index: int) -> Trip:
        return self.trips[index]

    @property
    def num_drivers(self) -> int:
        return len({trip.driver_id for trip in self.trips})

    def split(
        self,
        train_fraction: float = 0.7,
        validation_fraction: float = 0.1,
        rng: RngLike = None,
    ) -> DatasetSplit:
        """Shuffled split by trip; the remainder goes to test.

        Guarantees at least one trip in train when fractions allow, and
        validates that all three parts are consistent with the corpus
        size.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        if validation_fraction < 0 or train_fraction + validation_fraction >= 1.0:
            raise ValueError(
                "fractions must satisfy 0 < train, 0 <= validation, "
                f"train + validation < 1; got ({train_fraction}, {validation_fraction})"
            )
        generator = make_rng(rng)
        order = generator.permutation(len(self.trips))
        n_train = max(1, int(round(train_fraction * len(self.trips))))
        n_val = int(round(validation_fraction * len(self.trips)))
        n_train = min(n_train, len(self.trips) - 1)
        train_idx = order[:n_train]
        val_idx = order[n_train:n_train + n_val]
        test_idx = order[n_train + n_val:]
        if len(test_idx) == 0:
            raise ValueError("split produced an empty test set; lower the fractions")
        pick = lambda idx: tuple(self.trips[int(i)] for i in idx)  # noqa: E731
        return DatasetSplit(train=pick(train_idx), validation=pick(val_idx),
                            test=pick(test_idx))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format_version": _FORMAT_VERSION,
            "network": network_to_dict(self.network),
            "trips": [
                {
                    "trip_id": trip.trip_id,
                    "driver_id": trip.driver_id,
                    "vertices": list(trip.path.vertices),
                }
                for trip in self.trips
            ],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "TrajectoryDataset":
        if not isinstance(document, dict):
            raise SerializationError("dataset document must be a mapping")
        if document.get("format_version") != _FORMAT_VERSION:
            raise SerializationError(
                f"unsupported dataset version {document.get('format_version')!r}"
            )
        network = network_from_dict(document["network"])
        try:
            trips = [
                Trip(
                    trip_id=int(row["trip_id"]),
                    driver_id=int(row["driver_id"]),
                    path=Path(network, row["vertices"]),
                )
                for row in document["trips"]
            ]
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed dataset document: {exc}") from exc
        return cls(network, trips)

    def save(self, path: str | FilePath) -> None:
        path = FilePath(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str | FilePath) -> "TrajectoryDataset":
        path = FilePath(path)
        if not path.exists():
            raise SerializationError(f"no such dataset file: {path}")
        with open(path, encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(document)

    def __repr__(self) -> str:
        return (f"TrajectoryDataset(trips={len(self.trips)}, "
                f"drivers={self.num_drivers}, network={self.network.name!r})")
