"""Unit tests for the transaction model."""

import pytest

from repro.protocol.transactions import (
    Command,
    ResponseError,
    Transaction,
    TransactionError,
    TransactionResponse,
    TransactionStatus,
)


class TestConstruction:
    def test_read_factory(self):
        txn = Transaction.read(0x100, length=4)
        assert txn.command == Command.READ
        assert txn.read_length == 4
        assert txn.expects_response
        assert txn.is_read
        assert txn.burst_length == 4

    def test_write_factory(self):
        txn = Transaction.write(0x200, [1, 2, 3])
        assert txn.command == Command.WRITE
        assert txn.write_data == [1, 2, 3]
        assert txn.expects_response
        assert not txn.is_read
        assert txn.burst_length == 3

    def test_posted_write_has_no_response(self):
        txn = Transaction.write(0x200, [1], posted=True)
        assert txn.command == Command.WRITE_POSTED
        assert not txn.expects_response

    def test_write_without_data_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(command=Command.WRITE, address=0)

    def test_read_with_data_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(command=Command.READ, address=0, write_data=[1],
                        read_length=1)

    def test_read_without_length_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(command=Command.READ, address=0)

    def test_oversized_bursts_rejected(self):
        with pytest.raises(TransactionError):
            Transaction.read(0, length=5000)
        with pytest.raises(TransactionError):
            Transaction.write(0, [0] * 5000)

    def test_address_and_data_masked_to_32_bits(self):
        txn = Transaction.write(0x1_FFFF_FFFF, [0x1_0000_0002])
        assert txn.address == 0xFFFFFFFF
        assert txn.write_data == [2]

    @pytest.mark.parametrize("build", [
        lambda data: Transaction.write(0, data),
        lambda data: Transaction(command=Command.WRITE, address=0,
                                 write_data=data),
    ], ids=["write", "direct"])
    def test_callers_list_is_neither_aliased_nor_mutated(self, build):
        data = [0x1_0000_0002, 3]
        txn = build(data)
        assert data == [0x1_0000_0002, 3]
        assert txn.write_data == [2, 3]
        data[1] = 99
        txn.write_data.append(4)
        assert txn.write_data == [2, 3, 4] and data == [0x1_0000_0002, 99]

    def test_write_takes_any_iterable_once(self):
        assert Transaction.write(0, (w for w in (1, 2))).write_data == [1, 2]

    def test_unique_uids(self):
        assert Transaction.read(0, 1).uid != Transaction.read(0, 1).uid

    def test_read_linked_and_write_conditional(self):
        rl = Transaction(command=Command.READ_LINKED, address=4, read_length=1)
        wc = Transaction(command=Command.WRITE_CONDITIONAL, address=4,
                         write_data=[1])
        assert rl.expects_response and wc.expects_response


class TestCompletion:
    def test_successful_completion(self):
        txn = Transaction.read(0, 2)
        txn.issue_cycle = 10
        txn.complete(TransactionResponse(read_data=[5, 6]), cycle=25)
        assert txn.status == TransactionStatus.COMPLETED
        assert txn.response.read_data == [5, 6]
        assert txn.latency_cycles == 15

    def test_error_completion(self):
        txn = Transaction.write(0, [1])
        txn.complete(TransactionResponse(error=ResponseError.SLAVE_ERROR))
        assert txn.status == TransactionStatus.ERROR
        assert not txn.response.ok

    def test_latency_unknown_before_completion(self):
        assert Transaction.read(0, 1).latency_cycles is None


class TestTransactionResponse:
    def test_ok_flag(self):
        assert TransactionResponse().ok
        assert not TransactionResponse(error=ResponseError.DECODE_ERROR).ok

    def test_a_response_is_frozen(self):
        with pytest.raises(AttributeError):
            TransactionResponse().error = ResponseError.SLAVE_ERROR


@pytest.mark.parametrize("instance", [Transaction.read(0, 1),
                                      TransactionResponse()],
                         ids=["Transaction", "TransactionResponse"])
def test_an_ad_hoc_attribute_fails_loudly(instance):
    """Slotted: a run keeps one of these per completed transaction, and a
    stray attribute would bring the per-instance dict back."""
    assert not hasattr(instance, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        instance.note = "ad hoc"
