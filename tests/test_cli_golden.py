"""Golden corpus of CLI outputs: the exit code and the sha256 of stdout for
every subcommand in every output format on A2, A3 and B3, and of ``scan`` on
D4, the smallest group here whose scan reaches the Boolean certificate.

A change to the CLI or the layers under it must leave every entry as it is,
unless the change means to alter that output.  Print the corpus of the
current code with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io

import pytest

from vermaext.cli import run

# Per type: an element for the pair commands and a parabolic subset.
TYPES = {"A2": ("s1*s2", "s1"), "A3": ("s2*s1*s3*s2", "s1,s3"), "B3": ("s0*s1*s0", "s0")}
FORMATS = ("text", "csv", "json")


def corpus() -> list[list[str]]:
    argvs = []
    for label, (mid, J) in TYPES.items():
        commands = [
            ["group"],
            ["kl", "--from", "e", "--to", mid],
            ["kl", "--nontrivial-from", "e"],
            ["rpoly", "--from", "w0", "--to", "e"],
            ["rpoly", "--table"],
            ["rpoly", "--table", "--expected"],
            ["prpoly", "--J", J, "--from", "s2", "--to", "e"],
            ["prpoly", "--J", J, "--table"],
            ["srpoly", "--J", J, "--from", "s2", "--to", "e"],
            ["srpoly", "--J", J, "--table"],
            ["bound", "--target", "e", "--source", mid],
            ["grid", "--target", "e", "--source", "w0"],
            ["triangle", "--from", "w0", "--to", "e"],
            ["scan"],
            ["predict", "--w", "s1"],
            ["classes"],
            ["classes", "--pair", "w0,e"],
        ]
        for cmd in commands:
            for fmt in FORMATS:
                argvs.append(cmd[:1] + ["--type", label] + cmd[1:] + ["--format", fmt])
    for fmt in FORMATS:
        argvs.append(["scan", "--type", "D4", "--format", fmt])
    for fmt in FORMATS:
        argvs.append(["verify", "--suite", "a2-tables", "--format", fmt])
    return argvs


def digest(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


GOLDEN = {
    'group --type A2 --format text': (0, '65fea74a3afe47f1c081fd7e870c75a6e0327deab715569d45fbd6e5c6f10b9f'),
    'group --type A2 --format csv': (0, '65fea74a3afe47f1c081fd7e870c75a6e0327deab715569d45fbd6e5c6f10b9f'),
    'group --type A2 --format json': (0, 'a98096207c46e5337f56a401da96875f224af099ebb08d921207d7f1bac45219'),
    'kl --type A2 --from e --to s1*s2 --format text': (0, '709d6914543c2fc97bcfd636dc54cbf433073204909b9a08a1eed81f87741137'),
    'kl --type A2 --from e --to s1*s2 --format csv': (0, '709d6914543c2fc97bcfd636dc54cbf433073204909b9a08a1eed81f87741137'),
    'kl --type A2 --from e --to s1*s2 --format json': (0, '5f729d344f1962414247209681ac07f5251da5b2aa2753aa8e4dc9204d249b11'),
    'kl --type A2 --nontrivial-from e --format text': (0, '5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f'),
    'kl --type A2 --nontrivial-from e --format csv': (0, '5dfecbf35de344dc6dc4b8a79c4e5327122b2737250403b04abf2060fbc3927f'),
    'kl --type A2 --nontrivial-from e --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
    'rpoly --type A2 --from w0 --to e --format text': (0, '35e22e7ed52e244e26bea3d17dfdf429b97ed2918c0e26bf7cfd4860d63b6d20'),
    'rpoly --type A2 --from w0 --to e --format csv': (0, '35e22e7ed52e244e26bea3d17dfdf429b97ed2918c0e26bf7cfd4860d63b6d20'),
    'rpoly --type A2 --from w0 --to e --format json': (0, 'f6c24779237ca438a4ac907743648bc655d6b262858b8cd5940628a99e924921'),
    'rpoly --type A2 --table --format text': (0, '2749b0c34242733643e56d9663205cab2029499df192a9eeda0278aab53bc86b'),
    'rpoly --type A2 --table --format csv': (0, 'fed1dace8d3d02e504f9fc5ca2a3b821e9dbd3e58c7176003017eaf88cbbb9a7'),
    'rpoly --type A2 --table --format json': (0, '7f7fd8d836d8cdb1d68ee9dbb9122f070597671bff36bd4f394dbf121dcecd3d'),
    'rpoly --type A2 --table --expected --format text': (0, 'c222d9d20e01e01d1b4aef7faa383e191f0dc1b180af71c100133f9de2c0d09c'),
    'rpoly --type A2 --table --expected --format csv': (0, '96277c449e2377228fb67ca43aa6db5c763ee111bad372f3fd8c2e5ff919ce39'),
    'rpoly --type A2 --table --expected --format json': (0, '555bc1b5d64e8582e918c713fe3e25aa747a08a304c8cd96d7adf1ef8b26a3fc'),
    'prpoly --type A2 --J s1 --from s2 --to e --format text': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'prpoly --type A2 --J s1 --from s2 --to e --format csv': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'prpoly --type A2 --J s1 --from s2 --to e --format json': (0, '5c8302526a173068a673a38aa770b4681b3d290e75431e19ec5ea0c7940f0de3'),
    'prpoly --type A2 --J s1 --table --format text': (0, '78551a50a6e4c79266cf166e7bba662055e6f483a6fa0b5f44340af6be40932c'),
    'prpoly --type A2 --J s1 --table --format csv': (0, '99db4ef556a1d447f31e16a576147b9af1ad62a12a53b36d54ea85a16f1b143a'),
    'prpoly --type A2 --J s1 --table --format json': (0, 'e3d5cf385733b8466d1a14111cd50b80179ef7b4014581d85c6cdfeaaef3b48b'),
    'srpoly --type A2 --J s1 --from s2 --to e --format text': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'srpoly --type A2 --J s1 --from s2 --to e --format csv': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'srpoly --type A2 --J s1 --from s2 --to e --format json': (0, '5c8302526a173068a673a38aa770b4681b3d290e75431e19ec5ea0c7940f0de3'),
    'srpoly --type A2 --J s1 --table --format text': (0, '0bcc9fc61a25f20eb3d06564cfbfdc73d5460c0472a8228495a8b4d10744a309'),
    'srpoly --type A2 --J s1 --table --format csv': (0, '93eedb3521d376291c9b19839930c720307eb68222611f6db49e947d06c55021'),
    'srpoly --type A2 --J s1 --table --format json': (0, 'dc67929a77293ea9b2f3561f6957af172a825d54706ddc50939a0d660ac0fdb6'),
    'bound --type A2 --target e --source s1*s2 --format text': (0, 'eaae377e8e40aa1ecb86fac4535ed0c0e30613f4b9e101c08533aeec5ce501d4'),
    'bound --type A2 --target e --source s1*s2 --format csv': (0, 'eaae377e8e40aa1ecb86fac4535ed0c0e30613f4b9e101c08533aeec5ce501d4'),
    'bound --type A2 --target e --source s1*s2 --format json': (0, '8aae23ca1d874f94b5d89d68894fa2c91d7502236d31e2f48b67ee167bac2a7b'),
    'grid --type A2 --target e --source w0 --format text': (0, 'e100551112e5e0b617e6db6d66415fd177baa2921aaee85d98b727b4e3b92a5b'),
    'grid --type A2 --target e --source w0 --format csv': (0, 'f139adb80df5087d346eee5007d4042c457c9bc2b1ad53abc7af0d990220b640'),
    'grid --type A2 --target e --source w0 --format json': (0, '52cc9b0f01fc680f9dfaf24430e663e34199b8d781368c1a942bf5c7740ba00e'),
    'triangle --type A2 --from w0 --to e --format text': (0, '1c1392b43adc0436a99848637c57ed2df05d5261e17449380347f0b6ab1bcf36'),
    'triangle --type A2 --from w0 --to e --format csv': (0, '1c1392b43adc0436a99848637c57ed2df05d5261e17449380347f0b6ab1bcf36'),
    'triangle --type A2 --from w0 --to e --format json': (0, 'f6ee0a83d5cfaa7e912d375dfb98bf77d90b21d021d8f54eb83e285e8586eb0d'),
    'scan --type A2 --format text': (0, '465f947384f09c323e8fa06eac6f4b0a42cd697ade40f8e7c1c1e3d3e94e656d'),
    'scan --type A2 --format csv': (0, '465f947384f09c323e8fa06eac6f4b0a42cd697ade40f8e7c1c1e3d3e94e656d'),
    'scan --type A2 --format json': (0, '6ecfd54f87681e234703dd6cf12b5c4eff3d808d5b4d18c2ef842d9e549b552a'),
    'predict --type A2 --w s1 --format text': (0, '6d994216bc7f924c6792fc190def0b875edac9c2d87319d07afda79772b027e6'),
    'predict --type A2 --w s1 --format csv': (0, '6d994216bc7f924c6792fc190def0b875edac9c2d87319d07afda79772b027e6'),
    'predict --type A2 --w s1 --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
    'classes --type A2 --format text': (0, '3b9b4d44f01d208ff73d34e6d240232e437400b6f2c453aab177d76210d0a1d5'),
    'classes --type A2 --format csv': (0, '3b9b4d44f01d208ff73d34e6d240232e437400b6f2c453aab177d76210d0a1d5'),
    'classes --type A2 --format json': (0, '21d42dab47754a8c8a925097195f0e5765185b36b093ea03d5632ac8181a3b6f'),
    'classes --type A2 --pair w0,e --format text': (0, '307be81f0369d864b7f0240a48616e4311c185b968d0a21353c47c0d20170b5b'),
    'classes --type A2 --pair w0,e --format csv': (0, '307be81f0369d864b7f0240a48616e4311c185b968d0a21353c47c0d20170b5b'),
    'classes --type A2 --pair w0,e --format json': (0, '2c5cf9143dff03f05f085848e1a857880dca999077abcce973c3a149501edca3'),
    'group --type A3 --format text': (0, '163266a47a7ff645baed7c72cf496d2a85b07ee5afc4ca9abd5875aba73a4d13'),
    'group --type A3 --format csv': (0, '163266a47a7ff645baed7c72cf496d2a85b07ee5afc4ca9abd5875aba73a4d13'),
    'group --type A3 --format json': (0, 'e066466340f40acd18737e099fdf4b3e2d6efcd0c866a99572c8f876f4413a1b'),
    'kl --type A3 --from e --to s2*s1*s3*s2 --format text': (0, '27d151854ef587a92e63d556b500d0fb4f82f09b25be81758bfc67ef964cc5b4'),
    'kl --type A3 --from e --to s2*s1*s3*s2 --format csv': (0, '27d151854ef587a92e63d556b500d0fb4f82f09b25be81758bfc67ef964cc5b4'),
    'kl --type A3 --from e --to s2*s1*s3*s2 --format json': (0, 'cd6173a791b6d47d4c3435622a6cd6fcc472dd38c1d0163f5273ac0faf41dc5b'),
    'kl --type A3 --nontrivial-from e --format text': (0, '46e2ee02029584e98ef7e0ff606d644244c393328a905916fbcadabe40c4a5c7'),
    'kl --type A3 --nontrivial-from e --format csv': (0, '46e2ee02029584e98ef7e0ff606d644244c393328a905916fbcadabe40c4a5c7'),
    'kl --type A3 --nontrivial-from e --format json': (0, '9daf82253c7a53358f9ef4c580aad27367e8cd3ed71501d219ef893555f57cb6'),
    'rpoly --type A3 --from w0 --to e --format text': (0, 'd1eae7412122f162f4f35703d1c89f1d29f0d1ff30387de3f2ad274eb3e2e142'),
    'rpoly --type A3 --from w0 --to e --format csv': (0, 'd1eae7412122f162f4f35703d1c89f1d29f0d1ff30387de3f2ad274eb3e2e142'),
    'rpoly --type A3 --from w0 --to e --format json': (0, '028daa2ebf137a5a72bba7b69d57304796185b7c98c389e5154eea19ce1f5ab0'),
    'rpoly --type A3 --table --format text': (0, '2b70f89c0b5a0ba9b1e5b89da7d2141ca9e0a057c1a00614a9bf12f47e5f22eb'),
    'rpoly --type A3 --table --format csv': (0, '814b04d2d7b5547b35fb2ade44f389e53675452a3bdd36385394c82edfef0f6b'),
    'rpoly --type A3 --table --format json': (0, '18b8f4c07ff3926a01a39e584ccd0163263d9b21098f5a1bc639c9e76fbfc052'),
    'rpoly --type A3 --table --expected --format text': (0, '0aca2fddbbee092052d6092e3a7a6703d0a2d9758b83c0d9a66989a216259bed'),
    'rpoly --type A3 --table --expected --format csv': (0, '25ee667274a124f6556ed8cc76d1bde11b77ee77904b4c937d93d0c942eb57b1'),
    'rpoly --type A3 --table --expected --format json': (0, '310a8861d9bdd9e325729c6da6dafb0ea44582e95f77c9e2a7a94ceb28dbf362'),
    'prpoly --type A3 --J s1,s3 --from s2 --to e --format text': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'prpoly --type A3 --J s1,s3 --from s2 --to e --format csv': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'prpoly --type A3 --J s1,s3 --from s2 --to e --format json': (0, '5c8302526a173068a673a38aa770b4681b3d290e75431e19ec5ea0c7940f0de3'),
    'prpoly --type A3 --J s1,s3 --table --format text': (0, 'c87998f123e4f0549f64bb105a58ec0c5ce376ba1255b7e3af679e9028c36df7'),
    'prpoly --type A3 --J s1,s3 --table --format csv': (0, 'fdc854de0df3363edd2c0a74cf4a4e1a6d062838110a06948d4d9bd1fcedb521'),
    'prpoly --type A3 --J s1,s3 --table --format json': (0, '11e84e9201ef2476e14b6bb77f09f279e3d0ccc1c8892f6b78fae14f474e2ba2'),
    'srpoly --type A3 --J s1,s3 --from s2 --to e --format text': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'srpoly --type A3 --J s1,s3 --from s2 --to e --format csv': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'srpoly --type A3 --J s1,s3 --from s2 --to e --format json': (0, '5c8302526a173068a673a38aa770b4681b3d290e75431e19ec5ea0c7940f0de3'),
    'srpoly --type A3 --J s1,s3 --table --format text': (0, '41bcad7f93a40c578364255077089a4d2a357357f33c255005a0438c999c8c6a'),
    'srpoly --type A3 --J s1,s3 --table --format csv': (0, '78be8c9ddd55bcf8379e1284cd16918c1eb2b3f9f8efab6fc499e35bf4b56358'),
    'srpoly --type A3 --J s1,s3 --table --format json': (0, 'cc48736513aab32d8384efee1ae86ebe8f71d69871926b004512163cebe69ba6'),
    'bound --type A3 --target e --source s2*s1*s3*s2 --format text': (0, '32e3a505ddac9aedab294fdf6893753ae09d510aa4f93b3fba4957e48ddc1caf'),
    'bound --type A3 --target e --source s2*s1*s3*s2 --format csv': (0, '32e3a505ddac9aedab294fdf6893753ae09d510aa4f93b3fba4957e48ddc1caf'),
    'bound --type A3 --target e --source s2*s1*s3*s2 --format json': (0, 'f6cb894e069211d72a3a9776cd4ed59ba7236a3fee66c4da595f22dfd5487483'),
    'grid --type A3 --target e --source w0 --format text': (0, '07c864c9b905449c80fa7f4df084b2fde4a4994208590181d6fe0be9e49436ef'),
    'grid --type A3 --target e --source w0 --format csv': (0, '14d6f1dff5e2c06fc2412859063599359732740a1ac5348781ee00436f3f68e9'),
    'grid --type A3 --target e --source w0 --format json': (0, 'b9877f8bbb217ab06f9f3ba1927dedf398b9ad6b1d3a9f08c62ffde68230d141'),
    'triangle --type A3 --from w0 --to e --format text': (0, 'b393de9d008bed4fd0f59d7275a2ba216d83d23f8ebdea6bd900f0ebc558a037'),
    'triangle --type A3 --from w0 --to e --format csv': (0, 'b393de9d008bed4fd0f59d7275a2ba216d83d23f8ebdea6bd900f0ebc558a037'),
    'triangle --type A3 --from w0 --to e --format json': (0, '1c5dd521b220452f2e16bd81580b8cc624c08ca2389010d812b327afe328e4c7'),
    'scan --type A3 --format text': (0, '93bf41f7726543ec35ac4835e255d1a6b1d6cd9e3e12ec5a9fbd07e3eef68ef4'),
    'scan --type A3 --format csv': (0, '93bf41f7726543ec35ac4835e255d1a6b1d6cd9e3e12ec5a9fbd07e3eef68ef4'),
    'scan --type A3 --format json': (0, '444bd61da743728035cd08e13a5feebfff819421dc9254dd508979c24b1e0465'),
    'predict --type A3 --w s1 --format text': (0, '6d994216bc7f924c6792fc190def0b875edac9c2d87319d07afda79772b027e6'),
    'predict --type A3 --w s1 --format csv': (0, '6d994216bc7f924c6792fc190def0b875edac9c2d87319d07afda79772b027e6'),
    'predict --type A3 --w s1 --format json': (0, '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
    'classes --type A3 --format text': (0, '0a90847a89674a60faa307f11634d7e536d9aa98b198891cca642dc32b18767a'),
    'classes --type A3 --format csv': (0, '0a90847a89674a60faa307f11634d7e536d9aa98b198891cca642dc32b18767a'),
    'classes --type A3 --format json': (0, '492176b5391882cab7b9af109c909c8763122a539818fe2832ed3a701eebfafd'),
    'classes --type A3 --pair w0,e --format text': (0, '0238a631ddefe6e5aa46b9cc93d16b2381c3aa48d6ac7005561294c9e90ceda5'),
    'classes --type A3 --pair w0,e --format csv': (0, '0238a631ddefe6e5aa46b9cc93d16b2381c3aa48d6ac7005561294c9e90ceda5'),
    'classes --type A3 --pair w0,e --format json': (0, '7c9cb1367a5832d6bc37409441152824c2a338be721377dcf5d576a053f37b1a'),
    'group --type B3 --format text': (0, '9bed717da86895acc7ade917d120655560e7262935ea6a43e37d9c49f65a5471'),
    'group --type B3 --format csv': (0, '9bed717da86895acc7ade917d120655560e7262935ea6a43e37d9c49f65a5471'),
    'group --type B3 --format json': (0, 'bb8a5e44938af37d8924487c935e262f455fe695ddc88a52c4b7b9cd9c6ea76f'),
    'kl --type B3 --from e --to s0*s1*s0 --format text': (0, '32bcaaf77fcb5230dfab30a81fdccc1ebc03154701facddf82d03ef87dee8312'),
    'kl --type B3 --from e --to s0*s1*s0 --format csv': (0, '32bcaaf77fcb5230dfab30a81fdccc1ebc03154701facddf82d03ef87dee8312'),
    'kl --type B3 --from e --to s0*s1*s0 --format json': (0, 'f0d12223592e3fed08fd7eea15659c846f9d4fa2e1f2d3ad322da165119d03b9'),
    'kl --type B3 --nontrivial-from e --format text': (0, '6f03425c7823114b9b05d5d03ea6bdf132bb51561d971f042b85f46a312ace65'),
    'kl --type B3 --nontrivial-from e --format csv': (0, '6f03425c7823114b9b05d5d03ea6bdf132bb51561d971f042b85f46a312ace65'),
    'kl --type B3 --nontrivial-from e --format json': (0, '9e5ec14ffa7c92b6b91d710ad281c88ca12d541194229149247291e25cfc8b3c'),
    'rpoly --type B3 --from w0 --to e --format text': (0, '5b290ff5c9c4c894dd02d71b0d477abfe0f05ef5fc4f1182a842f8ebc1de760b'),
    'rpoly --type B3 --from w0 --to e --format csv': (0, '5b290ff5c9c4c894dd02d71b0d477abfe0f05ef5fc4f1182a842f8ebc1de760b'),
    'rpoly --type B3 --from w0 --to e --format json': (0, '1cbff50cfadfd8c84f2ea8cec36d9fc82717aeb16ead7f4f7761f8d0b173079d'),
    'rpoly --type B3 --table --format text': (0, '477c84624e8d915be571daff9ca88ce94677dbc4aebc9050cdc8f43e1148c60a'),
    'rpoly --type B3 --table --format csv': (0, 'dec161287f1b4855986cd718957f787dbe893084c94876512896697bb84e8837'),
    'rpoly --type B3 --table --format json': (0, 'b968c20393efd5abfaa036c648d0dd6a8b44327ec23a05530e93d589350fbac6'),
    'rpoly --type B3 --table --expected --format text': (0, 'b8ec6e540915873cb250b8024f82bd6056b552c26fbbc58a67c2a1d8dd288072'),
    'rpoly --type B3 --table --expected --format csv': (0, '887e9cedd28d337b35c3aa9d7bae5d0e7b8c2a5066d5d1358b2f4a3e2eb3e073'),
    'rpoly --type B3 --table --expected --format json': (0, '7a3340f45a2c4466e58317db15b3fcbdfc4e4fbb0c7f370d79a8b8c4738236f8'),
    'prpoly --type B3 --J s0 --from s2 --to e --format text': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'prpoly --type B3 --J s0 --from s2 --to e --format csv': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'prpoly --type B3 --J s0 --from s2 --to e --format json': (0, '5c8302526a173068a673a38aa770b4681b3d290e75431e19ec5ea0c7940f0de3'),
    'prpoly --type B3 --J s0 --table --format text': (0, '3d9cd1eea77af4f6c18caf457da340efb7d1ccd6b6c74a0c22a3018943bd251e'),
    'prpoly --type B3 --J s0 --table --format csv': (0, '1c9fd26c6588df9b92ed5e9713cd51c19c48b3a7ec98dbf8ca97e9e691671ccc'),
    'prpoly --type B3 --J s0 --table --format json': (0, '210c2da856973263b7439a2aaacdba24ad9ba133c3f5b33938d2ee3c2b9eb5b1'),
    'srpoly --type B3 --J s0 --from s2 --to e --format text': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'srpoly --type B3 --J s0 --from s2 --to e --format csv': (0, 'e168e1a911c7981b0e98040ce767ff6762c9d411d1dd322064a5e127b25246dc'),
    'srpoly --type B3 --J s0 --from s2 --to e --format json': (0, '5c8302526a173068a673a38aa770b4681b3d290e75431e19ec5ea0c7940f0de3'),
    'srpoly --type B3 --J s0 --table --format text': (0, '74b607a6495c426b4669e7290d6e97695242977850d92a0d2b271f73fe848642'),
    'srpoly --type B3 --J s0 --table --format csv': (0, 'ff0c3a24a4fb717bec40cd83a6eb9a7851c30755c78d46a4d7cd6b9568bf5848'),
    'srpoly --type B3 --J s0 --table --format json': (0, 'c90d78e1e818112cca2a56f8dffb8366162f3d615fc9a0215e561dd9bdfdbd2e'),
    'bound --type B3 --target e --source s0*s1*s0 --format text': (0, '6e4021895131176e7627f43d67b3d4f413e1f70775dd783a64479bc58cd7bfed'),
    'bound --type B3 --target e --source s0*s1*s0 --format csv': (0, '6e4021895131176e7627f43d67b3d4f413e1f70775dd783a64479bc58cd7bfed'),
    'bound --type B3 --target e --source s0*s1*s0 --format json': (0, 'a02206727f072051a1020fb0a9355800fc4090fa2a594f3a5c82b8e5f0e23451'),
    'grid --type B3 --target e --source w0 --format text': (0, '7fda44ca876357bf2af515dd721b96d21ec089ccfbac73e3ee2f29713637a722'),
    'grid --type B3 --target e --source w0 --format csv': (0, 'ab5598bbab8f0e68c2a9376557b14477b54e81b3db77305b2407166b96f55147'),
    'grid --type B3 --target e --source w0 --format json': (0, '683e3907f068d7aa04b2a72e32d1dc9b0eb4e78721033b3ab888167af3993735'),
    'triangle --type B3 --from w0 --to e --format text': (0, '9a7517be6cc934bc8b4f7cf6fa7960ca22fc124aed561564e7c3bd6b3397be46'),
    'triangle --type B3 --from w0 --to e --format csv': (0, '9a7517be6cc934bc8b4f7cf6fa7960ca22fc124aed561564e7c3bd6b3397be46'),
    'triangle --type B3 --from w0 --to e --format json': (0, '974282585efe0f88d7dad729c1edea30745fe916f206c9e559e5df2a07e4a242'),
    'scan --type B3 --format text': (0, '35b38ecda751c50b138f99680bb1bc1ca274a7f1bd5a2947efc4702e1e5bf2b9'),
    'scan --type B3 --format csv': (0, '35b38ecda751c50b138f99680bb1bc1ca274a7f1bd5a2947efc4702e1e5bf2b9'),
    'scan --type B3 --format json': (0, '4df8eb27d705d1d88187c8d7462a0789952110774612950997a1adbc4a545882'),
    'predict --type B3 --w s1 --format text': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict --type B3 --w s1 --format csv': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'predict --type B3 --w s1 --format json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'classes --type B3 --format text': (0, '053f2e9aa8976ea5066db6f7dc759cf51f45e0d5d6ec03fbd754b0bf0c8e74df'),
    'classes --type B3 --format csv': (0, '053f2e9aa8976ea5066db6f7dc759cf51f45e0d5d6ec03fbd754b0bf0c8e74df'),
    'classes --type B3 --format json': (0, '958e495d974b5a8e8fe40829a194e9b100bbe52050d7529814cf2b12579a950c'),
    'classes --type B3 --pair w0,e --format text': (0, '51aae052a1c44833943077367a318604e7513978a28db82298e17612101e6204'),
    'classes --type B3 --pair w0,e --format csv': (0, '51aae052a1c44833943077367a318604e7513978a28db82298e17612101e6204'),
    'classes --type B3 --pair w0,e --format json': (0, '2373b59b5d198921ac66548b0d16e7d63811b723805f458a2663a2b1485516c6'),
    'scan --type D4 --format text': (0, '9fbe92a0920edab2f41c248d08a96a5574a068c229a0913597280853b5217b6e'),
    'scan --type D4 --format csv': (0, '9fbe92a0920edab2f41c248d08a96a5574a068c229a0913597280853b5217b6e'),
    'scan --type D4 --format json': (0, 'a9aac55696590ecb7fb3c89432fb6fa1d46077591450e60dccda0569f4c3ba2c'),
    'verify --suite a2-tables --format text': (0, 'a322ac817a065d64bacdacc9a47493a6a5defed2f6a81b11a52093546f1700ed'),
    'verify --suite a2-tables --format csv': (0, 'a322ac817a065d64bacdacc9a47493a6a5defed2f6a81b11a52093546f1700ed'),
    'verify --suite a2-tables --format json': (0, 'a322ac817a065d64bacdacc9a47493a6a5defed2f6a81b11a52093546f1700ed'),
}


def test_corpus_is_complete():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in corpus())


@pytest.mark.parametrize("argv", corpus(), ids=" ".join)
def test_output_unchanged(argv):
    assert digest(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    for argv in corpus():
        print("    %r: %r," % (" ".join(argv), digest(argv)))
