"""On-disk layout of a service data directory.

Every service process -- the HTTP front end, the queue workers, a
``QueueBackend`` campaign -- agrees on one directory shape, so "attach
to the service" is a single ``--data DIR`` flag everywhere::

    DIR/
      broker.sqlite3                # the durable job queue (JobBroker)
      cache/                        # the shared ResultCache directory
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.campaign.cache import ResultCache
from repro.service.broker import JobBroker

__all__ = [
    "BROKER_FILENAME",
    "CACHE_DIRNAME",
    "broker_path",
    "cache_root",
    "open_broker",
    "open_cache",
]

BROKER_FILENAME = "broker.sqlite3"
CACHE_DIRNAME = "cache"


def broker_path(data_dir: Union[str, Path]) -> Path:
    return Path(data_dir) / BROKER_FILENAME


def cache_root(data_dir: Union[str, Path]) -> Path:
    return Path(data_dir) / CACHE_DIRNAME


def open_broker(data_dir: Union[str, Path], **kwargs) -> JobBroker:
    """Open (creating if needed) the data directory's job broker."""
    return JobBroker(broker_path(data_dir), **kwargs)


def open_cache(data_dir: Union[str, Path]) -> ResultCache:
    """Open the data directory's shared result cache."""
    return ResultCache(cache_root(data_dir))
