"""Small shared utilities: bitsets, ASCII tables, seeded RNG helpers, and
directory fsync."""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "durable": ("fsync_dir",),
        "bitset": (
            "bit", "bitset_from_iterable", "bitset_to_list", "iter_bits", "popcount",
        ),
        "rng": ("make_rng", "spawn_rngs"),
        "tables": ("format_table",),
    },
)
