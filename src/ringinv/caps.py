"""Search and enumeration caps, echoed verbatim into every report."""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, replace
from functools import cached_property


@dataclass(frozen=True)
class Caps:
    exhaustive_ideal_order: int = 256   # ring order bound for exhaustive ideal scans
    ideal_count: int = 4096             # lattice enumeration bound (join closure)
    d_search: int = 16                  # trace-power nilpotency search bound
    nilpotency_iterations: int = 64
    udim_exhaustive_order: int = 256
    group_cap: int = 720
    splitting_enum: int = 2048          # complements examined per search
    sample_count: int = 48              # generators drawn in sampled modes
    module_order: int = 4096            # module length size bound

    def as_dict(self) -> dict:
        """The caps by name: a fresh copy of the echo every report carries."""
        return dict(self._echo)

    @cached_property
    def _echo(self) -> dict:
        # built once: the fields are frozen, and `asdict` deep-copies them
        return asdict(self)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the hash of the field tuple, as the generated one, built once: a
        # memo key that holds the caps hashes them on every lookup
        return hash(astuple(self))

    def updated(self, **kv) -> "Caps":
        return replace(self, **kv)

    @classmethod
    def parse(cls, text: str) -> "Caps":
        """Parse `k=v,k=v` pairs over the default values; ValueError on an
        unknown cap, a value that is not an integer, or a negative one."""
        caps = cls()
        if not text:
            return caps
        fields = caps.as_dict()
        updates = {}
        for item in text.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"unknown cap {key!r}")
            updates[key] = int(value)
            if updates[key] < 0:
                raise ValueError(f"cap {key!r} is negative")
        return caps.updated(**updates)


DEFAULT_CAPS = Caps()
