"""Smart-contract runtime: the stand-in for the EVM + Solidity contracts.

Contracts are Python classes whose externally callable methods are marked with
:func:`contract_method` (state-mutating, invoked through transactions) or
:func:`view_method` (read-only, invoked directly without a transaction).
During execution a contract can read the caller's address, the current block
number and timestamp, emit events, and consume gas.  The runtime enforces the
gas limit and rolls back nothing (contracts are expected to validate before
mutating — the same discipline Solidity's ``require`` encourages and which the
UnifyFL contract follows).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.chain.events import Event


class ContractError(Exception):
    """Raised when a contract call reverts (a ``require`` failure)."""


class GasExhaustedError(ContractError):
    """Raised when a call consumes more gas than the transaction's limit."""


@dataclass
class CallContext:
    """Execution context visible to a contract method (``msg``/``block`` in Solidity)."""

    sender: str
    block_number: int
    timestamp: float
    gas_limit: int = 1_000_000
    gas_used: int = 0
    events: List[Event] = field(default_factory=list)

    def charge(self, amount: int) -> None:
        """Consume gas; raises :class:`GasExhaustedError` past the limit."""
        if amount < 0:
            raise ValueError("gas amount must be non-negative")
        self.gas_used += amount
        if self.gas_used > self.gas_limit:
            raise GasExhaustedError(
                f"gas limit {self.gas_limit} exhausted (needed {self.gas_used})"
            )


def contract_method(func: Callable) -> Callable:
    """Mark a contract method as externally callable via transactions."""
    func.__contract_method__ = True
    func.__view_method__ = False
    return func


def view_method(func: Callable) -> Callable:
    """Mark a contract method as a read-only view (no transaction required)."""
    func.__contract_method__ = True
    func.__view_method__ = True
    return func


class Contract:
    """Base class for deployed contracts.

    Subclasses define state in ``__init__`` and expose methods with the
    :func:`contract_method` / :func:`view_method` decorators.  Inside a
    method, ``self.ctx`` exposes the call context and ``self.emit`` records
    an event.
    """

    #: human-readable contract name used as its address on the chain.
    name: str = "contract"

    #: base gas charged per call; methods may charge more via ``self.ctx.charge``.
    base_gas_per_call: int = 21_000

    def __init__(self) -> None:
        self._ctx: Optional[CallContext] = None

    # -- context management (driven by the runtime) -------------------------
    @property
    def ctx(self) -> CallContext:
        """The active call context; only valid during a call."""
        if self._ctx is None:
            raise ContractError("contract method accessed outside of a call context")
        return self._ctx

    def emit(self, event_name: str, **payload: Any) -> None:
        """Emit an event from the current call."""
        self.ctx.events.append(Event(contract=self.name, name=event_name, payload=payload))
        self.ctx.charge(375 + 8 * len(str(payload)))

    def require(self, condition: bool, message: str) -> None:
        """Solidity-style ``require``: revert with ``message`` when false."""
        if not condition:
            raise ContractError(message)

    # -- introspection -------------------------------------------------------
    @classmethod
    def callable_methods(cls) -> Dict[str, Callable]:
        """All methods exposed to external callers.

        Walked once per contract class — every runtime dispatch asks — and
        kept in the class's *own* ``__dict__``, so a subclass builds its own
        table instead of inheriting its parent's.
        """
        methods = cls.__dict__.get("_callable_methods")
        if methods is None:
            methods = {}
            for attr in dir(cls):
                candidate = getattr(cls, attr)
                if callable(candidate) and getattr(candidate, "__contract_method__", False):
                    methods[attr] = candidate
            cls._callable_methods = methods
        return methods

    @classmethod
    def is_view(cls, method_name: str) -> bool:
        """Whether a method is a read-only view."""
        method = cls.callable_methods().get(method_name)
        if method is None:
            raise ContractError(f"{cls.__name__} has no external method '{method_name}'")
        return bool(getattr(method, "__view_method__", False))


class ContractRuntime:
    """Executes contract calls within call contexts and collects gas/events."""

    def __init__(self) -> None:
        self._contracts: Dict[str, Contract] = {}

    def deploy(self, contract: Contract) -> Contract:
        """Register a contract instance under its name."""
        if contract.name in self._contracts:
            raise ContractError(f"a contract named '{contract.name}' is already deployed")
        self._contracts[contract.name] = contract
        return contract

    def get(self, name: str) -> Contract:
        """Look up a deployed contract by name."""
        if name not in self._contracts:
            raise ContractError(f"no contract deployed under the name '{name}'")
        return self._contracts[name]

    def call(
        self,
        contract_name: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        sender: str = "0x0",
        block_number: int = 0,
        timestamp: float = 0.0,
        gas_limit: int = 1_000_000,
    ) -> tuple[Any, CallContext]:
        """Execute a contract method and return (result, call context).

        View methods may be called freely; state-mutating methods are normally
        reached through :meth:`repro.chain.blockchain.Blockchain.submit_transaction`,
        which provides ordering and consensus on top of this runtime.
        """
        contract = self.get(contract_name)
        methods = contract.callable_methods()
        if method not in methods:
            raise ContractError(f"contract '{contract_name}' has no external method '{method}'")
        ctx = CallContext(
            sender=sender,
            block_number=block_number,
            timestamp=timestamp,
            gas_limit=gas_limit,
        )
        ctx.charge(contract.base_gas_per_call)
        bound = getattr(contract, method)
        previous = contract._ctx
        contract._ctx = ctx
        try:
            result = bound(**(args or {}))
        finally:
            contract._ctx = previous
        return result, ctx
