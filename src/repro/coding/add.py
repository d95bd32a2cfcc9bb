"""ADD: Asynchronous Data Dissemination (Das, Xiang, Ren — used by Algorithm 6).

The data-dissemination problem: a blob ``M`` is the input of at least
``t + 1`` correct processes (the others input nothing), and every correct
process must eventually output ``M`` — with ``O(n |M| + n^2)`` words of
communication rather than the ``O(n^2 |M|)`` of naive re-broadcasting.

The protocol:

1. *Disperse*: every process holding ``M`` Reed-Solomon-encodes it into ``n``
   fragments and sends fragment ``j`` (plus ``hash(M)``) to process ``j``.
2. *Own fragment*: process ``j`` adopts the fragment value it received from
   ``t + 1`` distinct senders for the expected hash — at least one of them is
   correct, so the adopted fragment is the true one.
3. *Reconstruct*: every process broadcasts its adopted fragment; receivers
   run error-correcting Reed-Solomon decoding over the fragments gathered so
   far (up to ``t`` of which may be Byzantine garbage) and output the decoded
   blob once its hash matches the expected one.

The expected hash is supplied by the caller (in Algorithm 6 it is the hash
decided by Quad), which replaces the online-error-correction bookkeeping of
the original ADD without changing its communication profile.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from ..crypto.hashing import digest
from ..sim.process import Process, ProtocolModule
from .reed_solomon import DecodingError, Fragment, ReedSolomonCode

OutputCallback = Callable[[bytes], None]

_DISPERSE = "disperse"
_RECONSTRUCT = "reconstruct"
_INT_ONLY = {int}


def _well_formed(fragment: Fragment) -> bool:
    """Whether a dispersed fragment's fields have their declared types, so it can be a vote key.

    The dispatcher checks only that the field is a :class:`Fragment`; a
    Byzantine sender may fill it with anything, an unhashable list included.
    """
    symbols = fragment.symbols
    return (
        type(fragment.index) is int
        and type(fragment.blob_length) is int
        and type(symbols) is tuple
        and set(map(type, symbols)) <= _INT_ONLY
    )


class AsynchronousDataDissemination(ProtocolModule):
    """One ADD instance (one blob to disseminate)."""

    def __init__(
        self,
        process: Process,
        name: str = "add",
        parent: Optional[ProtocolModule] = None,
        on_output: Optional[OutputCallback] = None,
    ):
        super().__init__(process, name, parent)
        self._on_output = on_output
        self.code = ReedSolomonCode(total_symbols=self.n, data_symbols=self.system.t + 1)
        self.expected_hash: Optional[str] = None
        self._started = False
        self._output: Optional[bytes] = None
        self._own_fragment: Optional[Fragment] = None
        self._well_formed_fragment: Optional[Fragment] = None
        self._disperse_votes: Dict[Tuple[str, Fragment], Set[int]] = {}
        self._reconstruct_fragments: Dict[int, Fragment] = {}

    # ------------------------------------------------------------------
    def input(self, blob: Optional[bytes], expected_hash: str) -> None:
        """Provide this process's input: the blob itself, or ``None`` with its expected hash."""
        if self._started:
            return
        self._started = True
        self.expected_hash = expected_hash
        if blob is not None and digest(blob) == expected_hash:
            for fragment in self.code.encode(blob):
                self.send(fragment.index, (_DISPERSE, expected_hash, fragment))
        self._flush_pending()

    # ------------------------------------------------------------------
    MESSAGES = {
        _DISPERSE: ("_on_disperse", (str, Fragment)),
        _RECONSTRUCT: ("_on_reconstruct", (str, Fragment)),
    }

    def _on_disperse(self, sender: int, blob_hash: str, fragment: Fragment) -> None:
        # Correct dispersers send this process the same frozen Fragment object
        # (the codec remembers its last blob's fragments): check it once.
        if fragment is not self._well_formed_fragment:
            if not _well_formed(fragment):
                return
            self._well_formed_fragment = fragment
        if fragment.index != self.pid:
            return
        votes = self._disperse_votes.setdefault((blob_hash, fragment), set())
        votes.add(sender)
        self._flush_pending()

    def _flush_pending(self) -> None:
        self._maybe_adopt_fragment()
        self._try_reconstruct()

    def _maybe_adopt_fragment(self) -> None:
        if not self._started or self._own_fragment is not None or self.expected_hash is None:
            return
        for (blob_hash, fragment), votes in self._disperse_votes.items():
            if blob_hash == self.expected_hash and len(votes) >= self.system.t + 1:
                self._own_fragment = fragment
                self.broadcast((_RECONSTRUCT, blob_hash, fragment))
                return

    def _on_reconstruct(self, sender: int, blob_hash: str, fragment: Fragment) -> None:
        # Kept per sender, never hashed; the decoder skips a malformed one.
        if fragment.index != sender:
            return
        self._reconstruct_fragments.setdefault(sender, fragment)
        self._try_reconstruct()

    def _try_reconstruct(self) -> None:
        if self._output is not None or not self._started or self.expected_hash is None:
            return
        fragments = list(self._reconstruct_fragments.values())
        if self._own_fragment is not None:
            fragments.append(self._own_fragment)
        if len(fragments) < self.code.data_symbols:
            return
        try:
            blob = self.code.decode(fragments)
        except DecodingError:
            return
        if digest(blob) != self.expected_hash:
            return
        self._output = blob
        self.stopped = True
        if self._on_output is not None:
            self._on_output(blob)

    # ------------------------------------------------------------------
    @property
    def output(self) -> Optional[bytes]:
        return self._output
