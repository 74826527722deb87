"""Every failure tilekit raises has one type per meaning."""

import ast
from pathlib import Path

import tilekit
from tilekit import errors

ERROR_TYPES = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
# programming errors that keep their builtin type, and the CLI's own usage error
OTHER_RAISES = {("tiles.py", "TypeError"),        # as_weighted: wrong argument type
                ("jsonio.py", "TypeError"),       # to_document: not a domain type
                ("cli.py", "_UsageError")}


def test_every_raise_names_a_tilekit_error():
    strays = []
    for path in sorted(Path(tilekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name not in ERROR_TYPES and (path.name, name) not in OTHER_RAISES:
                strays.append(f"{path.name}:{node.lineno}: raise {name}")
    assert strays == []


def test_input_errors_are_value_errors():
    assert issubclass(errors.InputContractError, ValueError)
    assert issubclass(errors.NoCycleError, errors.InputContractError)
    assert not issubclass(errors.InternalError, errors.InputContractError)
