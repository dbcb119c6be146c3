// The canonical form: every statement shape, the four string escapes,
// an else-if chain, a for with empty parts, modifiers and returns lists.
contract Canon {
    uint public total = 0x10 + 1;
    address internal owner = 0x00000000000000000000000000000000000000aA;
    mapping(address => uint256[]) balances;
    string private note = "back\\slash \"quoted\" line\nbreak tab\tstop";
    bool[4] flags;

    function settle(uint256 amount, string memory memo, address[] calldata payees)
        external payable onlyOwner whenLive returns (uint256, bool[], string)
    {
        uint256[] storage owed = balances[msg.sender];
        require(amount > 0 && !(flags[0] || flags[1]), "amount \"must\" be > 0\t\\ok");
        require(payees.length <= 10);
        if (amount == 1) return 1;
        else if (amount < 10) { total += amount; }
        else if (amount < 100) total -= -(-amount);
        else {
            total = (total + amount) * 2 - (amount - (1 - total)) / 3 % 4;
            emit Settled(msg.sender, amount, memo);
        }
        for (;;) {
            return;
        }
        for (uint i = 0; ; i++) {}
        for (; total > 0;) total--;
        for (total = 0; total < payees.length; total++) {
            payable(payees[total]).transfer(owed[total]);
        }
        while (address(this).balance > 0) {
            if (!flags[2]) {
                owner = address(0);
            } else {
                flags[3] = true;
            }
        }
        string memory text = "";
        return uint256(owed.length);
    }

    function idle() {
        if (flags[0]) {
        } else {
            if (flags[1]) total = 1;
            total = 2;
        }
    }
}

contract Empty {
}
